"""One benchmark run: WAL, Ray sessions, closed-loop cycles, result.

The driver is a single closed-loop client: each operation (commit, scan,
compaction) starts only after the previous one returned. Operations run on a
helper thread so that a stall past ``OP_DEADLINE_S`` becomes a counted
failure and the run still ends with a result line.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional

from perfbench.oracle import OracleClient, digest
from perfbench.workloads import WARMUP, Workload

SETUP_SAMPLES = 3
OP_DEADLINE_S = 60.0
# the run must be over (result printed, processes stopped) by this age
RUN_BUDGET_S = 170.0
SHUTDOWN_RESERVE_S = 20.0
OBJECT_STORE_BYTES = 512 << 20


class Stall(Exception):
    pass


def host_cpus() -> int:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    return int(subprocess.check_output(["nproc"]))


def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> List[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmd = fh.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def stop_descendants(timeout: float = 15.0) -> None:
    """TERM, then KILL, whatever this process started that is still
    running, and wait until it is gone."""
    pids = [p for p in descendants(os.getpid()) if _alive(p)]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except OSError:
                pass
        end = time.monotonic() + timeout / 2
        while time.monotonic() < end:
            for p in pids:  # reap our direct children
                try:
                    os.waitpid(p, os.WNOHANG)
                except OSError:
                    pass
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return
            time.sleep(0.05)


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def current_files(lake_dir: str) -> List[List[str]]:
    """Data files of each partition in the current manifest, read from the
    manifest JSON directly."""
    mdir = os.path.join(lake_dir, "_manifest")
    with open(os.path.join(mdir, "CURRENT")) as fh:
        version = int(fh.read().strip())
    with open(os.path.join(mdir, f"v{version}.json")) as fh:
        m = json.load(fh)
    return [p["files"] for p in m["partitions"].values()]


def referenced_bytes(lake_dir: str) -> int:
    """Bytes of the data files the current manifest lists."""
    return sum(os.path.getsize(os.path.join(lake_dir, f))
               for files in current_files(lake_dir) for f in files)


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Bench:
    def __init__(self, root: str, workload: Workload, seed: int,
                 seconds: float, trace: bool,
                 setup_samples: int = SETUP_SAMPLES,
                 log: Callable[[str], None] = None):
        self.root = root
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_samples = setup_samples
        self.log = log or (lambda msg: print(msg, file=sys.stderr,
                                             flush=True))
        self.t_start = time.monotonic()
        self.cpus = host_cpus()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.stalled = False
        self.samples: Dict[str, List[float]] = {}
        self.worker_peak_kb = 0
        self.tracer = None
        self.oracle: Optional[OracleClient] = None
        self.ray_tmp: Optional[str] = None
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)
        self.run_dir = tempfile.mkdtemp(prefix=".perfbench-run-", dir=root)

    # ------------------------------------------------------------ plumbing

    def _record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _remaining(self) -> float:
        return (RUN_BUDGET_S - SHUTDOWN_RESERVE_S
                - (time.monotonic() - self.t_start))

    def _call(self, fn):
        """Run ``fn`` on a helper thread under the operation deadline."""
        box: dict = {}

        def target():
            try:
                box["out"] = fn()
            except Exception as e:  # re-raised below, in the caller's thread
                box["err"] = e

        th = threading.Thread(target=target, daemon=True)
        th.start()
        th.join(timeout=max(1.0, min(OP_DEADLINE_S, self._remaining())))
        if th.is_alive():
            raise Stall("operation still running after its deadline")
        if "err" in box:
            raise box["err"]
        return box["out"]

    def _sample_rss(self) -> None:
        for p in descendants(os.getpid()):
            if _is_ray_worker(p):
                self.worker_peak_kb = max(self.worker_peak_kb,
                                          _peak_rss_kb(p))

    def _start_session(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(address="local", num_cpus=self.cpus,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", _temp_dir=self.ray_tmp)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def _check_workers_import_checkout(self) -> None:
        import ray

        @ray.remote(num_cpus=0)
        def where():
            import etl_ray

            return etl_ray.__file__

        path = ray.get(where.remote(), timeout=OP_DEADLINE_S)
        if not os.path.realpath(path).startswith(
                os.path.realpath(self.root) + os.sep):
            raise RuntimeError(
                f"Ray workers import etl_ray from {path}, not the checkout")

    # -------------------------------------------------------- operations

    def _commit(self, wal_dir: str, lake_dir: str, max_segments: int,
                traced: bool):
        from etl_ray import EngineConfig
        from etl_ray.pipelines.replay import replay_once

        def run():
            t0 = time.monotonic()
            cs = replay_once(wal_dir, lake_dir, EngineConfig(),
                             max_segments=max_segments)
            return time.monotonic() - t0, cs

        if traced:
            run = self._in_phase("commit", "pipelines.replay.replay_once",
                                 run)
        wall, cs = self._call(run)
        if cs is None:
            raise RuntimeError("replay_once found nothing to apply")
        if traced:
            self.tracer.check(
                events_validated=cs.events_in, events_applied=cs.events_in,
                quarantined=cs.quarantined, rows_written=cs.rows_written,
                manifest_commits=1)
        return wall, cs

    def _scan(self, lake_dir: str, traced: bool):
        import pyarrow as pa

        from etl_ray.lake import read_lake

        def run():
            t0 = time.monotonic()
            ds = read_lake(lake_dir, include_seq=True)
            blocks = list(ds.iter_batches(batch_format="pyarrow",
                                          batch_size=None))
            return time.monotonic() - t0, blocks

        if traced:
            run = self._in_phase("scan", "lake.read_lake", run)
        wall, blocks = self._call(run)
        table = pa.concat_tables(blocks, promote_options="default")
        if traced:
            self.tracer.check(
                partitions=sum(1 for f in current_files(lake_dir) if f),
                rows=table.num_rows)
        return wall, table

    def _compact(self, lake_dir: str, force: bool, traced: bool):
        from etl_ray import EngineConfig
        from etl_ray.pipelines.compaction import compact

        def run():
            t0 = time.monotonic()
            out = compact(lake_dir, EngineConfig(), force=force)
            return time.monotonic() - t0, out

        if traced:
            run = self._in_phase("compact", "pipelines.compaction.compact",
                                 run)
        wall, out = self._call(run)
        if traced:
            self.tracer.check(
                partitions=out["compacted_partitions"], rows=out["rows"],
                manifest_commits=int(out["compacted_partitions"] > 0))
        return wall

    def _in_phase(self, kind: str, name: str, fn):
        def run():
            with self.tracer.phase(kind, name):
                return fn()
        return run

    # ------------------------------------------------------------ phases

    def _warm_up(self, wal_dir: str) -> None:
        lake = os.path.join(self.run_dir, "warm-lake")
        shutil.rmtree(lake, ignore_errors=True)
        self._commit(wal_dir, lake, WARMUP.segments_per_commit, False)
        self._scan(lake, False)
        self._compact(lake, True, False)

    def _cycle(self, wal_paths: List[str], wal_bytes: int,
               commit_no: List[int]) -> None:
        wal_dir = os.path.dirname(wal_paths[0])
        lake = os.path.join(self.run_dir, "lake")
        shutil.rmtree(lake, ignore_errors=True)
        applied = 0
        space = None
        for op in self.w.cycle():
            self.attempted += 1
            if op[0] == "commit":
                traced = self.trace and commit_no[0] % 2 == 0
                commit_no[0] += 1
                wall, cs = self._commit(wal_dir, lake, op[1], traced)
                applied += len(cs.segments)
                self._record("commit_traced_s" if traced else "commit_s",
                             wall)
                if not traced:
                    self._record("ingest_events_per_s", cs.events_in / wall)
            elif op[0] == "scan":
                wall, table = self._scan(lake, self.trace)
                self._record("scan_s", wall)
                self._record("scan_rows_per_s", table.num_rows / wall)
                self._check_scan(table, wal_paths[:applied])
            else:
                before = referenced_bytes(lake)
                self._record("compact_s",
                             self._compact(lake, op[1], self.trace))
                space = before / referenced_bytes(lake)
            self._sample_rss()
        self._record("write_amp", _dir_bytes(lake) / wal_bytes)
        self._record("space_amp", space)

    def _check_scan(self, table, prefix: List[str]) -> None:
        want = self.oracle.expect(prefix)
        got = digest(table)
        if got != want:
            raise AssertionError(
                f"scan after {len(prefix)} segments disagrees with the "
                f"DuckDB state: {got[0]} rows vs {want[0]} expected"
                + ("" if got[0] != want[0] else " (row contents differ)"))

    # --------------------------------------------------------------- run

    def run(self) -> dict:
        try:
            self._run()
        except Stall as e:
            self.failed += 1
            self.stalled = True
            self.errors.append(f"stall: {e}")
        except Exception as e:
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            self.log(traceback.format_exc())
        finally:
            self._teardown()
        return self.result()

    def _run(self) -> None:
        import ray

        from perfbench.trace import SPAN_DIR_ENV, Tracer

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self.root] + [p for p in os.environ.get(
                "PYTHONPATH", "").split(os.pathsep) if p])
        span_dir = os.path.join(self.run_dir, "spans")
        os.environ[SPAN_DIR_ENV] = span_dir
        if self.trace:
            self.tracer = Tracer(span_dir)
        self.oracle = OracleClient(self.root)
        wal_paths, wal_bytes = self.oracle.generate(
            os.path.join(self.run_dir, "wal"), **self.w.wal_params(self.seed))
        warm_paths, _ = self.oracle.generate(
            os.path.join(self.run_dir, "warm-wal"),
            **WARMUP.wal_params(self.seed))
        warm_dir = os.path.dirname(warm_paths[0])
        # short, so that Ray's socket paths under it fit in 107 bytes
        self.ray_tmp = tempfile.mkdtemp(prefix="pbr")

        for i in range(self.setup_samples):
            t0 = time.monotonic()
            self._start_session()
            self._warm_up(warm_dir)
            self._record("setup_s", time.monotonic() - t0)
            if i == 0:
                self._check_workers_import_checkout()
            if i < self.setup_samples - 1:
                ray.shutdown()
        self.log(f"setup: {self.samples['setup_s']}")

        commit_no = [0]
        t0 = time.monotonic()
        while True:
            c0 = time.monotonic()
            self._cycle(wal_paths, wal_bytes, commit_no)
            last = time.monotonic() - c0
            self.log(f"cycle {len(self.samples['write_amp'])}: {last:.2f}s")
            spent = time.monotonic() - t0
            # a traced run needs both traced and untraced commits
            both = not self.trace or "commit_s" in self.samples
            if last > self._remaining() or (
                    both and spent + last > self.seconds):
                break

    def _teardown(self) -> None:
        import ray

        stopper = threading.Thread(target=ray.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=SHUTDOWN_RESERVE_S / 2)
        if self.oracle is not None:
            self.oracle.close()
        stop_descendants()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if self.ray_tmp:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # ------------------------------------------------------------ result

    def result(self) -> dict:
        s = self.samples
        metrics: Dict[str, dict] = {}
        ok = self.failed == 0
        if ok and not self.trace:
            commits = s["commit_s"]
            driver_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            vals = {
                "setup_s": statistics.median(s["setup_s"]),
                "ingest_events_per_s":
                    statistics.median(s["ingest_events_per_s"]),
                "commit_p50_s": statistics.median(commits),
                "commit_p90_s": p90(commits),
                "scan_rows_per_s": statistics.median(s["scan_rows_per_s"]),
                "compact_s": statistics.median(s["compact_s"]),
                "write_amp": statistics.median(s["write_amp"]),
                "space_amp": statistics.median(s["space_amp"]),
                "peak_rss_mb": max(driver_kb, self.worker_peak_kb) / 1024,
            }
            metrics = self._named("end_to_end", vals)
        elif ok:
            metrics = self._trace_metrics()
            ok = self.failed == 0
        self.log("samples: " + json.dumps(
            {k: [round(x, 4) for x in v] for k, v in s.items()}))
        for e in self.errors:
            self.log(f"error: {e}")
        return {"correct": ok, "attempted": max(self.attempted, 1),
                "failed": self.failed, "metrics": metrics}

    def _named(self, group: str, vals: Dict[str, float]) -> Dict[str, dict]:
        """The metrics BENCHMARK.json lists under ``group``, with its units."""
        return {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]}
                for m in self.spec[group]}

    def _trace_metrics(self) -> Dict[str, dict]:
        from perfbench.trace import layer_metrics

        t = self.tracer
        bad = [ph for ph in t.phases if not ph["ok"]]
        for ph in bad:
            self.errors.append(
                f"traced {ph['kind']}: spans do not nest in the phase or "
                f"miss work the engine reported {ph['mismatch']}")
        if t.orphans:
            self.errors.append(f"{t.orphans} worker spans outside any phase")
        if bad or t.orphans:
            self.failed += len(bad) + t.orphans
        vals = layer_metrics(t.phases)
        vals["trace_overhead"] = (statistics.median(self.samples[
            "commit_traced_s"]) / statistics.median(self.samples["commit_s"]))
        vals["trace.phases"] = len(t.phases)
        return self._named("per_layer", vals)
