"""End-to-end replay: tail WAL → validate → exchange → apply → commit.

One commit = one atomic application of a contiguous range of unapplied WAL
segments (the analog of the reference's one-task-per-archive lifecycle,
/root/reference/task/task.go:90-200, with Gardener-style resume,
active/poller.go:152-216).

Pipeline (the storage exchange, stages/exchange.py; one plain Ray task per
descriptor, dispatched by util.map_descriptors):

    rowgroup_descriptors(segments)        # one descriptor per WAL row group
      → FragmentReadWriter task each      # decode + validate + bucket split
    bucket_descriptors(stage-1 stats)     # one descriptor per bucket
      → ApplyBucket task each             # per-shard LWW apply, delta write
      → tiny per-shard stats table on the driver → atomic manifest commit

The manifest flip is the commit's only barrier; the stage tasks carry no
state between commits. ``exchange="sort"`` keeps the Ray Data groupby
exchange (no shared filesystem needed) with the same apply.

Skew: partitions whose previous-commit event count exceeded
``salt_threshold`` are salted this commit (salt = seq % max_salt) — adaptive,
no extra IO; correctness unaffected because merge-on-read is LWW by
sequence_number across all delta files.
"""

from __future__ import annotations

import time
from typing import List, Optional

import pyarrow as pa

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.schema import promote_all
from etl_ray.sources.wal import list_segments, segments_schema
from etl_ray.stages.apply import STATS_SCHEMA, ApplyShards
from etl_ray.stages.validate import Validator
from etl_ray.state.manifest import Manifest
from etl_ray.state.stats import CommitStats

class CommitAborted(RuntimeError):
    """Raised when a commit's quarantine ratio exceeds
    ``EngineConfig.max_failure_ratio`` — the analog of the reference's
    TaskError on >10% test failures (/root/reference/etl/etl.go:116-117,
    parser/ndt7_result.go:40-51). The manifest is NOT flipped."""

    def __init__(self, msg: str, stats=None):
        super().__init__(msg)
        self.stats = stats


# Control columns every changelog carries, as an Arrow schema fragment.
_CONTROL_SCHEMA = pa.schema(
    [
        pa.field("op", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("sequence_number", pa.int64()),
    ]
)


def _target_schema(manifest: Manifest, seg_paths: List[str],
                   config: EngineConfig) -> pa.Schema:
    schemas = []
    if manifest.schema is not None:
        schemas.append(manifest.schema)
    else:
        base = _CONTROL_SCHEMA
        if config.payload.payload_schema is not None:
            for f in config.payload.payload_schema:
                base = base.append(f)
        schemas.append(base)
    schemas.append(segments_schema(seg_paths))
    return promote_all(schemas)


def _salted_parts(manifest: Manifest, config: EngineConfig) -> frozenset:
    # scan back to the most recent REPLAY commit: compaction entries carry no
    # per_partition key and must not reset hot-partition salting
    for c in reversed(manifest.lineage.get("commits", [])):
        last = c.get("per_partition")
        if last is not None:
            return frozenset(
                int(k) for k, v in last.items()
                if v.get("rows", 0) >= config.salt_threshold
            )
    return frozenset()


def _storage_exchange_apply(seg_paths, lake_dir, commit_id, config, target,
                            salted, cpus, pre_map=None) -> pa.Table:
    """Two-phase apply through the disk exchange (see stages/exchange.py).

    Stage 1 runs one task per WAL row group (decode, ``pre_map``, validate,
    bucket-split fragment write); stage 2 runs one task per bucket. Both
    return tiny stats tables, gathered in submission order.
    """
    from etl_ray.stages import exchange
    from etl_ray.util import map_descriptors

    # wipe any fragments from a crashed attempt of this same commit: the
    # retry regenerates them deterministically
    exchange.cleanup_exchange(lake_dir, commit_id, config.exchange_root)
    exch = exchange.exchange_path(lake_dir, commit_id, config.exchange_root)
    n_buckets = max(4, min(config.num_partitions * config.max_salt,
                           cpus * config.bucket_multiplier))
    in_flight = config.apply_concurrency
    # fused read: stage-1 tasks decode their own row group in place; no WAL
    # bytes cross the object store (the unfused ReadParquet → map_batches
    # chain round-tripped the whole WAL through plasma: measured 3.6-4.4 s
    # vs ~1.0 s at 8 CPUs). The stage callables are looked up on the module
    # at call time so instrumented subclasses can stand in for them.
    frag_stats = map_descriptors(
        exchange.FragmentReadWriter(config, target, salted, exch, n_buckets,
                                    pre_map=pre_map),
        exchange.rowgroup_descriptors(seg_paths), in_flight)
    items = exchange.bucket_descriptors(frag_stats.to_pandas(), n_buckets)
    if not items:
        return STATS_SCHEMA.empty_table()
    stats_tbl = map_descriptors(
        exchange.ApplyBucket(lake_dir, commit_id, config, exch, n_buckets),
        items, in_flight)
    exchange.cleanup_exchange(lake_dir, commit_id, config.exchange_root)
    return stats_tbl


def _fold_commit_stats(manifest: Manifest, cs: CommitStats,
                       stats_tbl: pa.Table, target: pa.Schema, t0: float,
                       *, recovery: bool = False) -> None:
    """Fold the apply stage's per-shard stats into ``cs`` and stage the next
    manifest version in memory (the caller commits it). A replay commit
    appends its quarantine file; a recovery commit REPLACES the quarantine
    with what is still invalid."""
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
    lin = manifest.lineage
    if recovery:
        manifest.quarantine_files = quarantine
        lin["quarantined"] = cs.quarantined
    else:
        manifest.quarantine_files.extend(quarantine)
        lin["quarantined"] += cs.quarantined
    lin["events_in"] += cs.events_in
    lin["valid"] += cs.valid
    lin["rows_written"] += cs.rows_written
    lin["deletes"] += cs.deletes
    rec = cs.to_json()
    if recovery:
        rec["recovery"] = True
    lin["commits"].append(rec)


def replay_once(
    wal_dir: str,
    lake_dir: str,
    config: EngineConfig,
    *,
    max_segments: Optional[int] = None,
    commit: bool = True,
) -> Optional[CommitStats]:
    """Apply the next batch of unapplied segments as one commit.

    Returns None when there is nothing to apply. ``commit=False`` performs
    all data writes but skips the manifest flip — used by crash/resume tests
    to simulate a failure between apply and commit (the rerun must produce
    byte-identical files and the same manifest).
    """
    import ray

    t0 = time.monotonic()
    manifest = Manifest.load(lake_dir)
    if manifest.version == 0 and not manifest.partitions:
        manifest.num_partitions = config.num_partitions
    elif manifest.num_partitions != config.num_partitions:
        raise ValueError(
            f"lake has {manifest.num_partitions} partitions; config says "
            f"{config.num_partitions} — partition count is fixed at creation"
        )
    segs = list_segments(
        wal_dir,
        after=manifest.applied_through_segment,
        skip_count=config.skip_count,
        limit=max_segments or config.max_segments_per_commit,
    )
    if not segs:
        return None
    if config.max_bytes_per_commit is not None and len(segs) > 1:
        # bound a commit by input bytes (driver-side stat of the tiny
        # work-list): a catch-up backlog becomes several bounded commits,
        # so bucket size stays ~ cap / n_buckets instead of the backlog
        import os as _os

        total, cut = 0, len(segs)
        for i, s in enumerate(segs):
            total += s.size if s.size >= 0 else _os.path.getsize(s.path)
            if total > config.max_bytes_per_commit and i > 0:
                cut = i
                break
        segs = segs[:cut]
    seg_paths = [s.path for s in segs]
    target = _target_schema(manifest, seg_paths, config)
    commit_id = manifest.commit_id
    salted = _salted_parts(manifest, config)

    cpus = int(ray.cluster_resources().get("CPU", 4))
    if config.exchange == "storage":
        stats_tbl = _storage_exchange_apply(
            seg_paths, lake_dir, commit_id, config, target, salted, cpus)
    else:
        from etl_ray.util import read_parquet_any

        ds = read_parquet_any(seg_paths)
        ds = ds.map_batches(
            Validator(config, target, salted),
            batch_format="pyarrow",
            batch_size=config.batch_size,
        )
        # The groupby exchange is a barrier that materializes its input
        # anyway; the explicit materialize keeps the read+validate phase and
        # the shuffle+apply phase from fighting over CPUs. A constructed
        # ApplyShards runs as a task pool, which holds no CPUs while the
        # sort runs (a fixed actor pool did, and hung at 1-2 CPUs).
        validated = ds.materialize()
        apply = ApplyShards(lake_dir, commit_id, config)
        df = (
            validated.groupby("__shard")
            .map_groups(lambda g: apply(g), batch_format="pyarrow")
            .to_pandas()
        )
        stats_tbl = pa.Table.from_pandas(
            df, schema=STATS_SCHEMA, preserve_index=False) \
            if len(df) else STATS_SCHEMA.empty_table()

    cs = CommitStats(commit_id=commit_id, segments=[s.number for s in segs])
    _fold_commit_stats(manifest, cs, stats_tbl, target, t0)
    if (
        config.max_failure_ratio is not None
        and cs.events_in > 0
        and cs.quarantined / cs.events_in > config.max_failure_ratio
    ):
        # the reference's TaskError gate (>10% of tests failing fails the
        # task, /root/reference/etl/etl.go:116-117): leave the manifest
        # UNFLIPPED so the bad batch is retried/inspected, never silently
        # committed. Data writes are deterministic → a later retry after the
        # poison source is fixed overwrites them byte-for-byte.
        raise CommitAborted(
            f"commit {commit_id}: {cs.quarantined}/{cs.events_in} events "
            f"quarantined (> max_failure_ratio={config.max_failure_ratio})",
            stats=cs,
        )
    manifest.applied_through_segment = segs[-1].number
    if commit:
        manifest.commit()
    return cs


# columns a quarantine file may persist that are not event fields: the
# Validator re-derives them
_QUARANTINE_META = ("__reason", "__shard")


def _strip_quarantine_meta(t: pa.Table) -> pa.Table:
    drop = [c for c in _QUARANTINE_META if c in t.column_names]
    return t.drop_columns(drop) if drop else t


def recover_quarantine(
    lake_dir: str,
    config: EngineConfig,
) -> Optional[CommitStats]:
    """Dead-letter replay: re-validate the quarantine under the CURRENT
    config and apply newly-valid events as a normal exactly-once commit.

    The lifecycle the reference lives by — archives that failed a parser
    are reprocessed after the parser is fixed (task retry path,
    /root/reference/etl/etl.go TaskError semantics) — lifted to rows:
    quarantine rows, land a correction rule (EngineConfig.corrections),
    recover. Still-invalid rows become the NEW quarantine (the old files
    stay referenced by manifest history for time travel); recovered
    events participate in LWW with their original sequence numbers, so a
    recovered event that was the latest write wins exactly as if it had
    never been quarantined. ``applied_through_segment`` is untouched.
    Returns None (and leaves the manifest unflipped) when nothing
    becomes valid."""
    import ray

    t0 = time.monotonic()
    manifest = Manifest.load(lake_dir)
    if not manifest.quarantine_files:
        return None
    import os as _os

    paths = [_os.path.join(lake_dir, f) for f in manifest.quarantine_files]
    target = _target_schema(manifest, paths, config)
    # a stored __reason must not survive into the target schema (it would
    # collide with the fresh one)
    for c in _QUARANTINE_META:
        if c in target.names:
            target = target.remove(target.get_field_index(c))
    commit_id = manifest.commit_id
    cpus = int(ray.cluster_resources().get("CPU", 4))
    stats_tbl = _storage_exchange_apply(
        paths, lake_dir, commit_id, config, target,
        _salted_parts(manifest, config), cpus,
        pre_map=_strip_quarantine_meta)

    cs = CommitStats(commit_id=commit_id, segments=[])
    _fold_commit_stats(manifest, cs, stats_tbl, target, t0, recovery=True)
    if cs.valid == 0:
        # nothing recovered: remove the rewritten (identical) quarantine
        # file and leave the manifest untouched — recovery is a no-op and
        # idempotent under repeated calls
        for f in manifest.quarantine_files:
            try:
                _os.remove(_os.path.join(lake_dir, f))
            except OSError:
                pass
        return None
    manifest.commit()
    return cs


def replay(
    wal_dir: str,
    lake_dir: str,
    config: Optional[EngineConfig] = None,
    *,
    segments_per_commit: Optional[int] = None,
    max_commits: Optional[int] = None,
) -> List[CommitStats]:
    """Replay all unapplied WAL segments, one or more commits, until caught
    up. Resumable: a rerun after any crash continues from the manifest."""
    config = config or EngineConfig()
    out = []
    while max_commits is None or len(out) < max_commits:
        cs = replay_once(
            wal_dir, lake_dir, config, max_segments=segments_per_commit
        )
        if cs is None:
            break
        out.append(cs)
    return out
