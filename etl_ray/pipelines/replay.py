"""End-to-end replay: tail WAL → validate → exchange → apply → commit.

One commit = one atomic application of a contiguous range of unapplied WAL
segments (the analog of the reference's one-task-per-archive lifecycle,
/root/reference/task/task.go:90-200, with Gardener-style resume,
active/poller.go:152-216).

One commit routine, ``_commit``, serves three callers: ``replay_once``
(the next WAL segments), ``recover_quarantine`` (the quarantine files,
re-validated) and ``bootstrap`` (an initial base table). It owns the
partition-count guard, the target schema, the exchange apply, the fold of
the stats into the manifest (partitions, watermarks, quarantine, lineage,
histograms), the removal of an aborted commit's files and the manifest
flip. A caller supplies only its inputs, its stage-1 ``pre_map`` and
sequence lower bound, whether it salts, whether its quarantine file is
appended or replaces the quarantine, its gate and its record.

Pipeline (the storage exchange, stages/exchange.py — the engine's only
hash partitioner; plain Ray tasks dispatched by util.map_descriptors, at
most two per cluster CPU, each taking a contiguous slice of descriptors):

    rowgroup_descriptors(inputs)          # one descriptor per input row
                                          # group: a WAL segment's, a
                                          # quarantine file's or a base's
      → FragmentReadWriter tasks          # decode + validate + bucket split
    bucket_descriptors(stage-1 stats)     # one descriptor per bucket
      → ApplyBucket tasks                 # per-shard LWW apply, delta write
      → tiny per-shard stats table on the driver → atomic manifest commit

The manifest flip is the commit's only barrier; the stage tasks carry no
state between commits.

Skew: partitions whose previous-commit event count exceeded
``salt_threshold`` are salted this commit (salt = seq % max_salt) — adaptive,
no extra IO; correctness unaffected because merge-on-read is LWW by
sequence_number across all delta files.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, List, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.lake import read_file
from etl_ray.schema import promote_all
from etl_ray.sources.wal import list_segments, segments_schema
from etl_ray.stages.apply import STATS_SCHEMA
from etl_ray.state.manifest import Manifest
from etl_ray.state.stats import CommitStats

# stage-2 buckets per cluster CPU: two waves of bucket tasks. A/B at 8 CPUs
# (BASELINE.md): 2 → 4.05 s, 3 → 5.35 s, 4 → 4.96 s — more buckets cost
# more fragment row groups per stage-1 task than their wave-packing saves.
BUCKETS_PER_CPU = 2


class CommitAborted(RuntimeError):
    """Raised when a commit's gate refuses it: a replay's quarantine ratio
    exceeds ``EngineConfig.max_failure_ratio`` (the analog of the
    reference's TaskError on >10% test failures, its etl/etl.go:116-117
    and parser/ndt7_result.go:40-51), or a bootstrap has an invalid base
    row. The manifest is NOT flipped, and the files the commit wrote are
    removed."""

    def __init__(self, msg: str, stats=None):
        super().__init__(msg)
        self.stats = stats


# Control columns every changelog carries, as an Arrow schema fragment.
_CONTROL_SCHEMA = pa.schema([("op", pa.string()), ("doc_id", pa.string()),
                             ("sequence_number", pa.int64())])


def _target_schema(manifest: Manifest, seg_paths: List[str],
                   config: EngineConfig) -> pa.Schema:
    base = manifest.schema
    if base is None:
        base = _CONTROL_SCHEMA
        for f in config.payload.payload_schema or ():
            base = base.append(f)
    target = promote_all([base, segments_schema(seg_paths)])
    # a quarantine file's stored __reason must not enter the target (it
    # would collide with the Validator's fresh one)
    if "__reason" in target.names:
        target = target.remove(target.get_field_index("__reason"))
    return target


def _salted_parts(manifest: Manifest, config: EngineConfig) -> frozenset:
    # the last replay or recovery commit's per-partition event counts: a
    # compaction records none, so it does not reset hot-partition salting
    return frozenset(int(k) for k, rows in manifest.partition_rows.items()
                     if rows >= config.salt_threshold)


def _storage_exchange_apply(seg_paths, lake_dir, commit_id, config, target,
                            salted, pre_map=None, min_seq=0) -> pa.Table:
    """Two-phase apply through the disk exchange (see stages/exchange.py).

    Stage 1 handles each input row group (decode, ``pre_map``, validate
    with ``min_seq`` as the lowest valid sequence number, bucket-split
    fragment write); stage 2 each bucket. Each stage packs its descriptors
    into at most two tasks per cluster CPU (``util.task_count``); both
    return tiny stats tables, gathered in submission order.
    """
    from etl_ray.stages import exchange
    from etl_ray.util import cluster_cpus, map_descriptors

    # wipe any fragments from a crashed attempt of this same commit: the
    # retry regenerates them deterministically
    exchange.cleanup_exchange(lake_dir, commit_id, config.exchange_root)
    exch = exchange.exchange_path(lake_dir, commit_id, config.exchange_root)
    n_buckets = max(4, min(config.num_partitions * config.max_salt,
                           cluster_cpus() * BUCKETS_PER_CPU))
    # fused read: stage-1 tasks decode their own row group in place; no WAL
    # bytes cross the object store (the unfused ReadParquet → map_batches
    # chain round-tripped the whole WAL through plasma: measured 3.6-4.4 s
    # vs ~1.0 s at 8 CPUs). The stage callables are looked up on the module
    # at call time so instrumented subclasses can stand in for them.
    frag_stats = map_descriptors(
        exchange.FragmentReadWriter(config, target, salted, exch, n_buckets,
                                    pre_map=pre_map, min_seq=min_seq),
        exchange.rowgroup_descriptors(seg_paths))
    items = exchange.bucket_descriptors(frag_stats.to_pandas(), n_buckets)
    if not items:
        return STATS_SCHEMA.empty_table()
    stats_tbl = map_descriptors(
        exchange.ApplyBucket(lake_dir, commit_id, config, exch),
        items)
    exchange.cleanup_exchange(lake_dir, commit_id, config.exchange_root)
    return stats_tbl


def _remove_files(lake_dir: str, rels: List[str]) -> None:
    """Remove the data files an aborted commit wrote. They are named by its
    commit_id, which no file the manifest lists carries."""
    for rel in rels:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(lake_dir, rel))


def _fold_commit_stats(manifest: Manifest, cs: CommitStats,
                       stats_tbl: pa.Table, target: pa.Schema, t0: float,
                       *, record: Callable[[CommitStats], dict]
                       = CommitStats.to_json,
                       replace_quarantine: bool = False) -> dict:
    """Fold the apply stage's per-shard stats into ``cs`` and stage the next
    manifest version in memory; return the commit record, ``record(cs)``.

    The lineage counters add up the records' counts (a bootstrap record
    has no event counts). A ``replace_quarantine`` commit (recovery)
    re-read the quarantine, whose events an earlier commit counted in, so
    it only moves the recovered ones from ``quarantined`` to ``valid``."""
    from etl_ray.state.stats import DURATION_BUCKETS, ROWS_BUCKETS, Histogram

    quarantine: List[str] = []
    for row in stats_tbl.to_pylist():
        cs.events_in += row["rows_in"]
        if row["shard"] == QUARANTINE_SHARD:
            cs.quarantined += row["rows_in"]
            quarantine.append(row["file"])
            continue
        cs.rows_written += row["rows_out"]
        cs.deletes += row["deletes"]
        p = manifest.partition(row["part"])
        p.files.append(row["file"])
        p.watermark_seq = max(p.watermark_seq, row["max_seq"])
        pp = cs.per_partition.setdefault(row["part"], {"rows": 0, "sec": 0.0})
        pp["rows"] += row["rows_in"]
        pp["sec"] += row["wall_sec"]
    for pp in cs.per_partition.values():
        pp["rows_per_sec"] = round(pp["rows"] / pp["sec"], 1) \
            if pp["sec"] else None
    cs.valid = cs.events_in - cs.quarantined
    cs.wall_sec = time.monotonic() - t0
    # per-stage distribution metrics for the /metrics scrape surface
    # (reference exports these as Prometheus histograms,
    # metrics/metrics.go:398-555)
    h_sec = Histogram(DURATION_BUCKETS)
    h_sec.observe_many(stats_tbl["wall_sec"].to_pylist())
    h_rows = Histogram(ROWS_BUCKETS)
    h_rows.observe_many(stats_tbl["rows_in"].to_pylist())
    cs.histograms = {"shard_apply_seconds": h_sec.to_json(),
                     "shard_rows": h_rows.to_json()}

    manifest.version += 1
    manifest.set_schema(target)
    rec = record(cs)
    lin = manifest.lineage
    for key in ("events_in", "valid", "quarantined", "rows_written",
                "deletes"):
        lin[key] += rec.get(key, 0)
    if replace_quarantine:
        manifest.quarantine_files = quarantine
        lin["events_in"] -= cs.events_in
        lin["quarantined"] -= cs.events_in
    else:
        manifest.quarantine_files.extend(quarantine)
    return rec


def _commit(manifest: Manifest, config: EngineConfig, paths: List[str], *,
            gate: Callable[[CommitStats], Optional[str]],
            record: Callable[[CommitStats], dict] = CommitStats.to_json,
            segments: Sequence[int] = (), pre_map=None, min_seq: int = 0,
            salt: bool = True, replace_quarantine: bool = False,
            flip: bool = True) -> Optional[CommitStats]:
    """Apply ``paths`` on top of ``manifest`` as one commit: exchange,
    fold, gate, manifest flip (skipped when not ``flip``). An empty v0
    lake adopts the config's partition count; any other mismatch raises
    ``ValueError`` before anything is written. No ``paths``: returns None.
    ``gate`` returns None to commit, or a message to abort: the commit's
    files are removed and ``CommitAborted`` carries the message."""
    t0 = time.monotonic()
    if manifest.version == 0 and not manifest.partitions:
        manifest.num_partitions = config.num_partitions
    elif manifest.num_partitions != config.num_partitions:
        raise ValueError(
            f"lake has {manifest.num_partitions} partitions; config says "
            f"{config.num_partitions} — partition count is fixed at creation")
    if not paths:
        return None
    target = _target_schema(manifest, paths, config)
    cs = CommitStats(commit_id=manifest.commit_id, segments=list(segments))
    stats_tbl = _storage_exchange_apply(
        paths, manifest.lake_dir, cs.commit_id, config, target,
        _salted_parts(manifest, config) if salt else frozenset(),
        pre_map=pre_map, min_seq=min_seq)
    rec = _fold_commit_stats(manifest, cs, stats_tbl, target, t0,
                             record=record,
                             replace_quarantine=replace_quarantine)
    reason = gate(cs)
    if reason is not None:
        _remove_files(manifest.lake_dir, stats_tbl["file"].to_pylist())
        raise CommitAborted(reason, stats=cs)
    if flip:
        manifest.commit(rec)
    return cs


def replay_once(wal_dir: str, lake_dir: str, config: EngineConfig, *,
                max_segments: Optional[int] = None,
                commit: bool = True) -> Optional[CommitStats]:
    """Apply the next batch of unapplied segments as one commit.

    Returns None when there is nothing to apply. ``commit=False`` performs
    all data writes but skips the manifest flip — used by crash/resume tests
    to simulate a failure between apply and commit (the rerun must produce
    byte-identical files and the same manifest).
    """
    manifest = Manifest.load(lake_dir)
    segs = list_segments(wal_dir, after=manifest.applied_through_segment,
                         skip_count=config.skip_count,
                         limit=max_segments or None)
    if config.max_bytes_per_commit is not None and len(segs) > 1:
        # bound a commit by input bytes (driver-side stat of the tiny
        # work-list): a catch-up backlog becomes several bounded commits,
        # so bucket size stays ~ cap / n_buckets instead of the backlog
        total, cut = 0, len(segs)
        for i, s in enumerate(segs):
            total += s.size
            if total > config.max_bytes_per_commit and i > 0:
                cut = i
                break
        segs = segs[:cut]
    if segs:
        # published only if the commit flips the manifest
        manifest.applied_through_segment = segs[-1].number

    def gate(cs: CommitStats) -> Optional[str]:
        # the reference's TaskError gate (>10% of tests failing fails the
        # task, its etl/etl.go:116-117): the bad batch is retried or
        # inspected, never silently committed
        ratio = config.max_failure_ratio
        if ratio is not None and cs.events_in \
                and cs.quarantined / cs.events_in > ratio:
            return (f"commit {cs.commit_id}: {cs.quarantined}/"
                    f"{cs.events_in} events quarantined "
                    f"(> max_failure_ratio={ratio})")
        return None

    return _commit(manifest, config, [s.path for s in segs], gate=gate,
                   segments=[s.number for s in segs], flip=commit)


def _strip_reason(t: pa.Table) -> pa.Table:
    """Recovery ``pre_map``: drop the ``__reason`` a quarantine file stores
    (the Validator derives a fresh one)."""
    return t.drop_columns(["__reason"]) if "__reason" in t.column_names \
        else t


def recover_quarantine(lake_dir: str,
                       config: EngineConfig) -> Optional[CommitStats]:
    """Dead-letter replay: re-validate the quarantine under the CURRENT
    config and apply newly-valid events as a normal exactly-once commit.

    The lifecycle the reference lives by — archives that failed a parser
    are reprocessed after the parser is fixed (task retry path,
    /root/reference/etl/etl.go TaskError semantics) — lifted to rows:
    quarantine rows, land a correction rule (EngineConfig.corrections),
    recover. Still-invalid rows become the NEW quarantine (the old files
    stay referenced by the older manifest versions, for time travel); recovered
    events participate in LWW with their original sequence numbers, so a
    recovered event that was the latest write wins exactly as if it had
    never been quarantined. ``applied_through_segment`` and the lineage's
    ``events_in`` are untouched; recovered events move from
    ``quarantined`` to ``valid``. Returns None (and leaves the manifest
    unflipped) when nothing becomes valid."""
    manifest = Manifest.load(lake_dir)
    try:
        return _commit(
            manifest, config,
            [os.path.join(lake_dir, f) for f in manifest.quarantine_files],
            gate=lambda cs: None if cs.valid else "nothing recovered",
            record=lambda cs: {**cs.to_json(), "recovery": True},
            pre_map=_strip_reason, replace_quarantine=True)
    except CommitAborted:
        # nothing recovered: the rewritten (identical) quarantine file is
        # removed and the manifest left untouched — recovery is a no-op
        # and idempotent under repeated calls
        return None


def _as_base_rows(t: pa.Table) -> pa.Table:
    """Bootstrap ``pre_map``: a base row is an insert older than every
    changelog event."""
    if "op" not in t.column_names:
        t = t.append_column("op", pa.repeat("insert", len(t)))
    if "sequence_number" not in t.column_names:
        t = t.append_column("sequence_number",
                            pa.repeat(pa.scalar(-1, pa.int64()), len(t)))
    return t


def bootstrap(base_path: str, lake_dir: str, config: EngineConfig) -> Manifest:
    """Load an initial base table (FIXTURES.md F1, one Parquet file) into an
    empty lake as version 1, through the same commit routine as a replay
    commit (unsalted).

    - Base rows become inserts with ``sequence_number`` -1 where the base
      lacks those columns, so any changelog event wins LWW against them;
      the Validator's lower bound is -1 for this commit only.
    - They pass through ``EngineConfig.corrections`` and validation like
      any event. If any base row is invalid, ``CommitAborted`` is raised,
      the files the commit wrote are removed and the lake stays at
      version 0: a quarantined row with sequence number -1 could never
      pass recovery's bound of 0.
    - Each partition gets one ``delta-c000001-p<k>-s0.parquet``. A forced
      compaction rewrites it into a base like any delta; an unforced one
      that takes a lone delta (``min_deltas=1``) promotes it to base
      without writing a new file.
    - The lineage record is ``{"commit_id": "bootstrap", "rows_written":
      N}``: base rows are not events, so ``events_in``, ``valid`` and
      ``quarantined`` stay 0.
    """
    manifest = Manifest.load(lake_dir)
    if manifest.version != 0:
        raise ValueError("bootstrap requires an empty lake")

    def gate(cs: CommitStats) -> Optional[str]:
        if not cs.quarantined:
            return None
        # the lake was empty: the staged quarantine is this commit's
        reasons = read_file(os.path.join(lake_dir,
                                         manifest.quarantine_files[0]),
                            ["__reason"])["__reason"]
        return (f"bootstrap: {cs.quarantined} invalid base rows "
                f"({', '.join(pc.unique(reasons).to_pylist())})")

    _commit(manifest, config, [base_path], gate=gate,
            record=lambda cs: {"commit_id": "bootstrap",
                               "rows_written": cs.rows_written},
            pre_map=_as_base_rows, min_seq=-1, salt=False)
    return manifest


def replay(wal_dir: str, lake_dir: str,
           config: Optional[EngineConfig] = None, *,
           segments_per_commit: Optional[int] = None,
           max_commits: Optional[int] = None) -> List[CommitStats]:
    """Replay all unapplied WAL segments, one or more commits, until caught
    up. Resumable: a rerun after any crash continues from the manifest."""
    config = config or EngineConfig()
    out = []
    while max_commits is None or len(out) < max_commits:
        cs = replay_once(wal_dir, lake_dir, config,
                         max_segments=segments_per_commit)
        if cs is None:
            break
        out.append(cs)
    return out
