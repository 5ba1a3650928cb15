"""Fast self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

Runs a tiny WAL through each workload's cycle end to end, untraced and
traced, with the DuckDB oracle checking every scan; shows that a scan
disagreeing with the oracle (one expected row corrupted) and a traced commit
that lost one worker task's spans are each reported as failed; and checks
that the benchmark refuses to run without the engine beside it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.driver import Bench  # noqa: E402
from perfbench.oracle import digest, expected_state  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402

BULK_TINY = Workload(
    name="bulk_tiny", n_events=4_000, n_segments=4,
    segments_per_commit=4, maintain_every=1, force_compact=True, rescan=True)
TAIL_TINY = Workload(
    name="tail_tiny", n_events=1_600, n_segments=16,
    segments_per_commit=1, maintain_every=8, force_compact=False,
    rescan=False, evolve_at_segment=8, corrupt_frac=0.05)


def corrupt_one_row(table):
    """The same table with the first row's first token changed."""
    import pyarrow as pa

    rows = table.to_pylist()
    rows[0]["tokens"] = [rows[0]["tokens"][0] + 1] + rows[0]["tokens"][1:]
    return pa.Table.from_pylist(rows, schema=table.schema)


class CapturingBench(Bench):
    """Keeps every scan's digest with the expected state of its WAL prefix,
    recomputed in-process; with ``corrupt`` set, feeds the gate an expected
    state with one row corrupted."""

    corrupt = False

    def _check_scan(self, table, prefix):
        if self.corrupt:
            bad = corrupt_one_row(expected_state(prefix))
            self.oracle._digests[tuple(prefix)] = digest(bad)
        else:
            self.captured.append((digest(table), expected_state(prefix)))
        super()._check_scan(table, prefix)


@contextlib.contextmanager
def lose_one_stage2_task():
    """Tracer that drops the first stage-2 task's spans, as if the task had
    never written its span file."""
    orig = Tracer._worker_spans

    def losing(self):
        spans = orig(self)
        roots = [s["id"] for s in spans
                 if s["name"] == "stages.exchange.ApplyBucket.__call__"]
        if roots and not getattr(self, "lost", False):
            self.lost = True
            gone = {roots[0]}
            while True:
                more = {s["id"] for s in spans if s["parent"] in gone}
                if more <= gone:
                    break
                gone |= more
            spans = [s for s in spans if s["id"] not in gone]
        return spans

    Tracer._worker_spans = losing
    try:
        yield
    finally:
        Tracer._worker_spans = orig


def run(workload, trace, corrupt=False):
    b = CapturingBench(ROOT, workload, seed=7, seconds=0, trace=trace,
                       setup_samples=1, log=lambda msg: None)
    b.captured = []
    b.corrupt = corrupt
    return b.run(), b


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    return bool(cond)


def main() -> int:
    ok = True

    for w in (BULK_TINY, TAIL_TINY):
        for trace in (False, True):
            res, b = run(w, trace)
            tag = f"{w.name} trace={int(trace)}"
            ok &= check(res["correct"] and res["failed"] == 0,
                        f"{tag}: correct, {res['attempted']} operations, "
                        f"none failed {b.errors or ''}")
            ok &= check(all(m["value"] > 0 for m in res["metrics"].values()
                            if not m["unit"] == "share"),
                        f"{tag}: metrics are positive")
            ok &= check(b.captured and all(
                got == digest(want) for got, want in b.captured),
                f"{tag}: {len(b.captured)} scans equal the DuckDB state")

    # the oracle side of the gate, offline on the last captured scan
    got, want = b.captured[-1]
    ok &= check(digest(want.take(list(reversed(range(len(want)))))) == got,
                "digest ignores row order")
    ok &= check(digest(corrupt_one_row(want)) != got,
                "one corrupted expected row changes the digest")
    ok &= check(digest(want.slice(1)) != got,
                "one missing expected row changes the digest")

    res, b = run(BULK_TINY, False, corrupt=True)
    ok &= check(not res["correct"] and res["failed"] == 1
                and "DuckDB" in " ".join(b.errors),
                "a scan that disagrees with the oracle is a failed operation")

    with lose_one_stage2_task():
        res, b = run(BULK_TINY, True)
    ok &= check(not res["correct"] and res["failed"] == 1
                and "events_applied" in " ".join(b.errors),
                "a traced commit missing one stage-2 task's spans fails")

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "bulk_backfill", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=170)
        ok &= check(proc.returncode != 0 and not proc.stdout.strip(),
                    "without the engine: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
