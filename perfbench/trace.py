"""Layer spans recorded from outside the engine.

A span is one call into a layer's public callable: name, start, end, parent
and a few counters. The benchmark opens one *phase* span per operation
(commit, scan, compaction); ``Tracer.install`` swaps the layers' callables
for timed wrappers while a traced operation runs and ``Tracer.uninstall``
puts the originals back, so untraced operations run the engine untouched.

Driver-side layers (WAL listing, manifest, exchange cleanup) are wrapped
functions. Worker-side layers (stage 1, validate, stage 2, apply, merge-read,
merge, compaction) are subclasses of the engine's callable classes, defined
here so that Ray workers unpickle them by import path; each task collects its
spans in memory and appends them to ``<span dir>/spans-<pid>.jsonl`` when its
root span ends. The driver attaches every worker root span that falls inside
a phase to that phase. ``time.monotonic`` is system-wide on Linux, so worker
and driver timestamps compare directly.

A span's self time is its duration minus the part of it that its child spans
cover.

Each closed phase is checked: every span lies inside its parent, and the
spans account for the work the engine reported for the operation (events
validated and applied, rows written, partitions read or compacted, manifest
commits). A worker task whose spans were lost leaves its events, rows or
partitions uncounted, so the phase fails.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import glob
import itertools
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.config import QUARANTINE_SHARD
from etl_ray.lake import MergeRead
from etl_ray.pipelines.compaction import CompactGroup
from etl_ray.stages.exchange import ApplyBucket, FragmentReadWriter

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
# worker and driver clocks agree; this only absorbs float rounding
NEST_TOLERANCE_S = 0.002

# (span dict, sink) of the innermost open span in this thread/task
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class _FileSink:
    """Spans of one worker task, written out when its root span ends."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self.pid = os.getpid()

    def next_id(self) -> str:
        return f"{self.pid}-{time.monotonic_ns()}-{next(self._ids)}"

    def add(self, rec: dict) -> None:
        self.spans.append(rec)

    def close(self) -> None:
        span_dir = os.environ.get(SPAN_DIR_ENV)
        if not span_dir:
            return
        path = os.path.join(span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))


@contextlib.contextmanager
def span(name: str, sink=None):
    """Open a span under the current one. Without a current span, ``sink``
    (driver phases) or a fresh per-task file sink (worker roots) owns it."""
    cur = _CURRENT.get()
    if cur is not None:
        parent, sink = cur[0]["id"], cur[1]
    else:
        parent, sink = None, sink or _FileSink()
    rec = {"id": sink.next_id(), "parent": parent, "name": name,
           "t0": time.monotonic(), "t1": None, "counts": {}}
    token = _CURRENT.set((rec, sink))
    try:
        yield rec
    finally:
        rec["t1"] = time.monotonic()
        _CURRENT.reset(token)
        sink.add(rec)
        if parent is None:
            sink.close()


def _wrap(fn: Callable, name: str, count: Optional[Callable] = None):
    """Time ``fn`` as a child span when called inside a traced phase; calls
    outside any span (the benchmark's own bookkeeping) pass straight through.
    ``count(counts, args, kwargs, result)`` fills the span's counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _CURRENT.get() is None:
            return fn(*args, **kwargs)
        with span(name) as rec:
            out = fn(*args, **kwargs)
            if count is not None:
                count(rec["counts"], args, kwargs, out)
            return out

    return traced


class _TracedCall:
    """Picklable stand-in for a callable object (Validator, ApplyShards)
    that times each call as a child span."""

    def __init__(self, inner, name: str, count: Optional[Callable] = None):
        self.inner = inner
        self.name = name
        self.count = count

    def __call__(self, *args, **kwargs):
        with span(self.name) as rec:
            out = self.inner(*args, **kwargs)
            if self.count is not None:
                self.count(rec["counts"], self.inner, out)
            return out


def _file_bytes(base: str, files) -> int:
    return sum(os.path.getsize(os.path.join(base, f)) for f in set(files))


def _count_validate(counts, validator, out: pa.Table) -> None:
    counts["rows"] = len(out)
    counts["quarantined"] = int(pc.sum(pc.equal(
        out["__shard"], QUARANTINE_SHARD)).as_py() or 0)


def _count_apply(counts, apply_shards, out: pa.Table) -> None:
    live = [r for r in out.to_pylist() if r["shard"] != QUARANTINE_SHARD]
    counts["rows_in"] = sum(r["rows_in"] for r in live)
    counts["rows_out"] = sum(r["rows_out"] for r in live)
    counts["delta_bytes"] = _file_bytes(apply_shards.lake_dir,
                                        [r["file"] for r in live])


def _count_merge(counts, args, kwargs, out: pa.Table) -> None:
    counts["rows_out"] = len(out)


@contextlib.contextmanager
def _swapped(module, attr: str, value):
    old = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, old)


def _traced_merge_runs(module):
    return _swapped(module, "merge_runs",
                    _wrap(module.merge_runs, "stages.merge.merge_runs",
                          _count_merge))


class TracedFragmentReadWriter(FragmentReadWriter):
    """Stage 1 (decode, validate, bucket split, fragment write) per task."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inner.validator = _TracedCall(
            self.inner.validator, "stages.validate.Validator.__call__",
            _count_validate)

    def __call__(self, desc: pa.Table) -> pa.Table:
        with span("stages.exchange.FragmentReadWriter.__call__") as rec:
            out = super().__call__(desc)
            rec["counts"]["fragment_bytes"] = _file_bytes(
                self.inner.exchange_dir, out["file"].to_pylist())
            return out


class TracedApplyBucket(ApplyBucket):
    """Stage 2 (fragment read + LWW apply + delta write) per bucket task."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inner = _TracedCall(self.inner,
                                 "stages.apply.ApplyShards.__call__",
                                 _count_apply)

    def __call__(self, desc: pa.Table) -> pa.Table:
        with span("stages.exchange.ApplyBucket.__call__") as rec:
            out = super().__call__(desc)
            q = pc.equal(out["shard"], QUARANTINE_SHARD)
            rec["counts"].update(
                events=pc.sum(out["rows_in"]).as_py() or 0,
                quarantined=pc.sum(pc.filter(out["rows_in"], q)).as_py()
                or 0)
            return out


class TracedMergeRead(MergeRead):
    """Merge-on-read of one partition per task."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import etl_ray.lake as lake_mod

        rows = batch.to_pylist()
        with span("lake.MergeRead.__call__") as rec, \
                _traced_merge_runs(lake_mod):
            out = super().__call__(batch)
            files = [f for r in rows for f in r["files"]]
            rec["counts"].update(partitions=len(rows), files=len(files),
                                 rows=len(out),
                                 bytes_read=_file_bytes(self.lake_dir, files))
            return out


class TracedCompactGroup(CompactGroup):
    """Compaction of one partition per task."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import etl_ray.pipelines.compaction as comp_mod

        rows = batch.to_pylist()
        with span("pipelines.compaction.CompactGroup.__call__") as rec, \
                _traced_merge_runs(comp_mod):
            out = super().__call__(batch)
            files = [f for r in rows for f in r["files"]]
            rec["counts"].update(
                partitions=len(rows), rows=pc.sum(out["rows"]).as_py() or 0,
                input_files=len(files),
                bytes_in=_file_bytes(self.lake_dir, files),
                bytes_out=_file_bytes(self.lake_dir,
                                      out["file"].to_pylist()))
            return out


def _count_manifest_commit(counts, args, kwargs, out) -> None:
    m = args[0]
    counts["bytes"] = os.path.getsize(
        os.path.join(m.manifest_dir, f"v{m.version}.json"))


# ---------------------------------------------------------------- driver


class Tracer:
    """Driver side: installs the wrappers, owns the phase spans, collects
    worker spans from the span directory and checks each phase's spans
    against what the engine returned for the operation."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        os.makedirs(span_dir, exist_ok=True)
        self._ids = itertools.count()
        self._driver_spans: List[dict] = []
        self._offsets: Dict[str, int] = {}
        self._saved: List[tuple] = []
        # {"kind", "root", "spans", "ok", "mismatch"}
        self.phases: List[dict] = []
        self.orphans = 0

    # sink protocol for driver spans
    def next_id(self) -> str:
        return f"d-{next(self._ids)}"

    def add(self, rec: dict) -> None:
        self._driver_spans.append(rec)

    def close(self) -> None:
        pass

    def install(self) -> None:
        import etl_ray.lake as lake_mod
        import etl_ray.pipelines.compaction as comp_mod
        import etl_ray.pipelines.replay as replay_mod
        import etl_ray.stages.exchange as exch_mod
        from etl_ray.state.manifest import Manifest

        load = Manifest.__dict__["load"]
        swaps = [
            (replay_mod, "list_segments", _wrap(
                replay_mod.list_segments, "sources.wal.list_segments")),
            (replay_mod, "segments_schema", _wrap(
                replay_mod.segments_schema, "sources.wal.segments_schema")),
            (Manifest, "load", staticmethod(_wrap(
                load.__func__, "state.manifest.Manifest.load"))),
            (Manifest, "commit", _wrap(
                Manifest.commit, "state.manifest.Manifest.commit",
                _count_manifest_commit)),
            (exch_mod, "cleanup_exchange", _wrap(
                exch_mod.cleanup_exchange,
                "stages.exchange.cleanup_exchange")),
            (exch_mod, "FragmentReadWriter", TracedFragmentReadWriter),
            (exch_mod, "ApplyBucket", TracedApplyBucket),
            (lake_mod, "MergeRead", TracedMergeRead),
            (comp_mod, "CompactGroup", TracedCompactGroup),
        ]
        for obj, attr, new in swaps:
            self._saved.append((obj, attr, obj.__dict__[attr]))
            setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)

    @contextlib.contextmanager
    def phase(self, kind: str, name: str):
        """Phase span around one traced operation (runs in the calling
        thread, so the engine's driver-side calls nest under it)."""
        self.install()
        try:
            with span(name, sink=self) as rec:
                yield rec
        finally:
            self.uninstall()
        self._close_phase(kind, rec)

    def _worker_spans(self) -> List[dict]:
        out = []
        for path in sorted(glob.glob(os.path.join(self.span_dir, "*.jsonl"))):
            with open(path) as fh:
                fh.seek(self._offsets.get(path, 0))
                data = fh.read()
            end = data.rfind("\n") + 1  # only whole lines
            self._offsets[path] = self._offsets.get(path, 0) + end
            out.extend(json.loads(line) for line in data[:end].splitlines())
        return out

    def _close_phase(self, kind: str, root: dict) -> None:
        spans = [s for s in self._driver_spans if s is not root]
        self._driver_spans = []
        for w in self._worker_spans():
            if w["parent"] is None:
                if (w["t0"] >= root["t0"] - NEST_TOLERANCE_S
                        and w["t1"] <= root["t1"] + NEST_TOLERANCE_S):
                    w["parent"] = root["id"]
                else:
                    self.orphans += 1
                    continue
            spans.append(w)
        ok = _nested(root, spans)
        self.phases.append({"kind": kind, "root": root, "spans": spans,
                            "ok": ok, "mismatch": {} if ok else "nesting"})

    def check(self, **expected: int) -> None:
        """Compare the last phase's span counters with what the engine
        returned for the operation; a difference fails the phase."""
        ph = self.phases[-1]
        got = _observed(ph["spans"])
        diff = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        if diff:
            ph["ok"] = False
            ph["mismatch"] = diff


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id → duration minus the union of its children's intervals
    (clipped to the span)."""
    kids: Dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        iv = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
              for c in kids.get(s["id"], [])]
        out[s["id"]] = (s["t1"] - s["t0"]) - _union(
            [(a, b) for a, b in iv if b > a])
    return out


def _nested(root: dict, spans: List[dict]) -> bool:
    """Every span has a parent in the phase and lies inside it."""
    by_id = {s["id"]: s for s in spans}
    by_id[root["id"]] = root
    for s in spans:
        p = by_id.get(s["parent"])
        if p is None or s["t0"] < p["t0"] - NEST_TOLERANCE_S \
                or s["t1"] > p["t1"] + NEST_TOLERANCE_S:
            return False
    return True


def _observed(spans: List[dict]) -> Dict[str, int]:
    """What a phase's spans saw, in the terms of the engine's return
    values: commit (CommitStats), scan (rows and partitions delivered) and
    compaction (``compact``'s summary)."""
    val = "stages.validate.Validator.__call__"
    s2 = "stages.exchange.ApplyBucket.__call__"
    part = ("lake.MergeRead.__call__",
            "pipelines.compaction.CompactGroup.__call__")
    return {
        "events_validated": _sum(spans, val, "rows"),
        "events_applied": _sum(spans, s2, "events"),
        "quarantined": _sum(spans, s2, "quarantined"),
        "rows_written":
            _sum(spans, "stages.apply.ApplyShards.__call__", "rows_out"),
        "manifest_commits": _n(spans, "state.manifest.Manifest.commit"),
        "partitions": sum(_sum(spans, n, "partitions") for n in part),
        "rows": sum(_sum(spans, n, "rows") for n in part),
    }


# ------------------------------------------------------- per-layer metrics


def _sum(spans, name, key=None) -> float:
    if key is None:
        return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _n(spans, name) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _commit_layers(root, spans, selfs) -> Dict[str, float]:
    s1 = "stages.exchange.FragmentReadWriter.__call__"
    s2 = "stages.exchange.ApplyBucket.__call__"
    val = "stages.validate.Validator.__call__"
    app = "stages.apply.ApplyShards.__call__"
    s2_durs = [s["t1"] - s["t0"] for s in spans if s["name"] == s2]
    rows_in = _sum(spans, app, "rows_in")
    validated = _sum(spans, val, "rows")
    wall = root["t1"] - root["t0"]
    return {
        "sources.wal.busy_s": _sum(spans, "sources.wal.list_segments")
        + _sum(spans, "sources.wal.segments_schema"),
        "stages.exchange.stage1_busy_s": _sum(spans, s1),
        "stages.exchange.stage1_tasks": _n(spans, s1),
        "stages.exchange.fragment_bytes": _sum(spans, s1, "fragment_bytes"),
        "stages.validate.busy_s": _sum(spans, val),
        "stages.validate.quarantined_share":
            _sum(spans, val, "quarantined") / validated if validated else 0.0,
        "stages.exchange.stage2_busy_s": sum(s2_durs),
        "stages.exchange.stage2_tasks": len(s2_durs),
        "stages.exchange.stage2_max_over_mean":
            max(s2_durs) / statistics.mean(s2_durs) if s2_durs else 0.0,
        "stages.apply.busy_s": _sum(spans, app),
        "stages.apply.rows_in": rows_in,
        "stages.apply.rows_out": _sum(spans, app, "rows_out"),
        "stages.apply.winners_share":
            _sum(spans, app, "rows_out") / rows_in if rows_in else 0.0,
        "stages.apply.delta_bytes": _sum(spans, app, "delta_bytes"),
        "stages.exchange.cleanup_s":
            _sum(spans, "stages.exchange.cleanup_exchange"),
        "state.manifest.load_s": _sum(spans, "state.manifest.Manifest.load"),
        "state.manifest.commit_s":
            _sum(spans, "state.manifest.Manifest.commit"),
        "state.manifest.bytes":
            _sum(spans, "state.manifest.Manifest.commit", "bytes"),
        "pipelines.replay.self_s": selfs[root["id"]],
        "trace.layer_share": (wall - selfs[root["id"]]) / wall,
    }


def _scan_layers(root, spans, selfs) -> Dict[str, float]:
    mr = "lake.MergeRead.__call__"
    parts = _sum(spans, mr, "partitions")
    return {
        "lake.busy_s": _sum(spans, mr),
        "lake.self_s": selfs[root["id"]],
        "lake.files_per_partition":
            _sum(spans, mr, "files") / parts if parts else 0.0,
        "lake.bytes_read": _sum(spans, mr, "bytes_read"),
        "stages.merge.busy_s": _sum(spans, "stages.merge.merge_runs"),
    }


def _compact_layers(root, spans, selfs) -> Dict[str, float]:
    cg = "pipelines.compaction.CompactGroup.__call__"
    return {
        "pipelines.compaction.busy_s": _sum(spans, cg),
        "pipelines.compaction.self_s": selfs[root["id"]],
        "pipelines.compaction.input_files": _sum(spans, cg, "input_files"),
        "pipelines.compaction.bytes_in": _sum(spans, cg, "bytes_in"),
        "pipelines.compaction.bytes_out": _sum(spans, cg, "bytes_out"),
        "stages.merge.compact_busy_s": _sum(spans, "stages.merge.merge_runs"),
    }


_LAYERS = {"commit": _commit_layers, "scan": _scan_layers,
           "compact": _compact_layers}


def layer_metrics(phases: List[dict]) -> Dict[str, float]:
    """Median over the traced operations of each per-operation layer value."""
    per: Dict[str, List[float]] = {}
    for ph in phases:
        selfs = self_times([ph["root"]] + ph["spans"])
        vals = _LAYERS[ph["kind"]](ph["root"], ph["spans"], selfs)
        for k, v in vals.items():
            per.setdefault(k, []).append(float(v))
    return {k: statistics.median(v) for k, v in per.items()}

