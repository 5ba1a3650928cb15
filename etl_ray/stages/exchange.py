"""Storage-backed exchange: the engine's hash partitioner.

Ray Data's generic all-to-all operators (sort shuffle / repartition) move
every row through the object store and, measured on this workload
(1 GB of list<int32>-heavy rows), run 5-30x slower than a disk exchange
(sort-based groupby: 174 s; repartition(shuffle=True): 406 s; this: ~7 s).
Production lakehouse ingest does the same thing — partition by key into
bucket files on shared storage, then per-bucket reducers — so the exchange
doubles as the natural multi-node path (the exchange dir lives next to the
lake on the shared filesystem / object store).

  Stage 1 (each input row group, stateless: a WAL segment's, a
    quarantine file's or a bootstrap base's): validate each batch, sort
    rows by bucket = mix(shard) % n_buckets, write ONE uncompressed Arrow
    IPC fragment file per batch, ONE RECORD BATCH per bucket, under
    ``<exchange>/frag-*.arrow`` (tmp+rename atomic). Quarantined rows go
    to their own ``frag-*-q.arrow``, the only fragments with ``__reason``.
    The returned stats table carries the (file, row_group) -> bucket
    index, where ``row_group`` is the record batch's index in its file, so
    no per-bucket directories and no small-file storm: fragment file count
    == batch count, not batch x bucket (the round-1 layout peaked at ~15k
    tiny files per commit at sf0.1; this writes ~60). Fragments carry the
    validated columns as they are (``__shard`` int64): uncompressed IPC
    encodes at memcpy speed and decodes for free, at about twice the bytes
    of lz4 Parquet, and re-encoding columns to save bytes cost more time
    than it saved.
  Stage 2 (per bucket): each bucket memory-maps exactly its record
    batches (zero-copy views, so a task's memory follows its bucket, not
    the commit), concatenates them without copying and makes one
    ApplyShards call: per-shard event counts, the LWW winners of the
    shared kernel (``stages/merge.py``) and the delta writes. A bucket
    holds about ``max_bytes_per_commit / n_buckets`` of events, which
    bounds a task's memory.

Both stages are plain ``ray.remote`` tasks (``util.map_descriptors``, at
most two per cluster CPU, each looping over a contiguous slice of
descriptors); the driver gathers their stats tables in submission order, so
manifests list files in a deterministic order.

Crash safety: a failed attempt's fragments are wiped at the start of the
retry (the exchange dir is keyed by the deterministic commit_id), and even
stale duplicate fragments would be collapsed by the LWW dedup — the final
delta files are deterministic regardless of fragment boundaries.
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.stages.validate import Validator

EXCHANGE_DIR = "_exchange"

FRAG_STATS_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int64()),
        pa.field("rows", pa.int64()),
        pa.field("file", pa.string()),
        pa.field("row_group", pa.int64()),
    ]
)


def _shard_bucket(shard: np.ndarray, n_buckets: int) -> np.ndarray:
    """shard → stage-2 bucket, via a multiplicative (Fibonacci) mix.

    A plain ``shard % n_buckets`` is DEGENERATE: shards are
    ``part * max_salt + salt`` (config.shard_of) and salt is almost always
    0, so shards are multiples of max_salt — with max_salt=8 and 16
    buckets only buckets {0, 8} ever fill, and stage 2 runs two tasks no
    matter how many CPUs exist (measured: the entire 2→8 CPU e2e scaling
    plateau). The mix spreads any arithmetic progression of shards evenly;
    it only needs to be deterministic within a commit (descriptors are
    built from the recorded bucket ids, and shard→bucket is re-derived
    nowhere else)."""
    mixed = (shard.astype(np.uint64) * np.uint64(11400714819323198485)) \
        >> np.uint64(40)
    return (mixed % np.uint64(n_buckets)).astype(np.int64)


def _exchange_base(lake_dir: str, root: str = None) -> str:
    """The lake's exchange dir: ``<root>/<lake basename>`` with an
    exchange root, else ``<lake>/_exchange``."""
    if root:
        tag = os.path.basename(os.path.normpath(lake_dir)) or "lake"
        return os.path.join(root, tag)
    return os.path.join(lake_dir, EXCHANGE_DIR)


def exchange_path(lake_dir: str, commit_id: str, root: str = None) -> str:
    return os.path.join(_exchange_base(lake_dir, root), commit_id)


class FragmentWriter:
    """Stage 1: validate + bucket-sort + one-file-per-batch fragment write.
    Fragments hold the validated columns as they are; valid fragments drop
    ``__reason``. A plain callable class; the Validator (compiled schema,
    hash fns) is built once, by the caller, and shipped with the
    instance."""

    def __init__(self, config: EngineConfig, target_schema, salted_parts,
                 exchange_dir: str, n_buckets: int, min_seq: int = 0):
        self.validator = Validator(config, target_schema, salted_parts,
                                   min_seq)
        self.exchange_dir = exchange_dir
        self.n_buckets = n_buckets

    def _write(self, t: pa.Table, bucket: np.ndarray, rel: str,
               out: dict) -> None:
        """Write ``t`` sorted by ``bucket`` to the fragment ``rel``: one
        uncompressed IPC record batch per bucket, so stage 2 reads
        zero-copy views (compressed buffers were 3x slower end to end).
        Appends one stats row per record batch to ``out``."""
        order = np.argsort(bucket, kind="stable")
        # one chunk for the WHOLE table, so every slice shares the
        # dictionary of a dictionary-encoded WAL column (the IPC file
        # format forbids dictionary replacement)
        rb = t.take(pa.array(order)).combine_chunks().to_batches()[0]
        bs = bucket[order]
        bounds = np.flatnonzero(np.diff(bs)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(bs)]])
        path = os.path.join(self.exchange_dir, rel)
        with pa.OSFile(path + ".tmp", "wb") as sink:
            with pa.ipc.new_file(sink, rb.schema) as w:
                for i, (s, e) in enumerate(zip(starts, ends)):
                    b, n = int(bs[s]), int(e - s)
                    w.write_batch(rb.slice(int(s), n))
                    out["bucket"].append(b)
                    out["rows"].append(n)
                    out["row_group"].append(i)
                    out["file"].append(rel)
        os.replace(path + ".tmp", path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return FRAG_STATS_SCHEMA.empty_table()
        batch = self.validator(batch)
        shard = batch["__shard"].to_numpy(zero_copy_only=False)
        is_q = shard == QUARANTINE_SHARD
        os.makedirs(self.exchange_dir, exist_ok=True)
        tag = uuid.uuid4().hex
        out = {name: [] for name in FRAG_STATS_SCHEMA.names}
        if is_q.any():
            # quarantine rows go to their OWN fragment: they are the only
            # rows that need the __reason column, so valid fragments drop
            # it entirely (an all-null string column still costs an offsets
            # buffer per row in IPC)
            qt = batch.filter(pa.array(is_q))
            self._write(qt, np.full(len(qt), self.n_buckets, np.int64),
                        f"frag-{tag}-q.arrow", out)
            batch = batch.filter(pa.array(~is_q))
            shard = shard[~is_q]
        if len(batch):
            self._write(batch.drop_columns(["__reason"]),
                        _shard_bucket(shard, self.n_buckets),
                        f"frag-{tag}.arrow", out)
        return pa.table(out, schema=FRAG_STATS_SCHEMA)


def rowgroup_descriptors(seg_paths: List[str],
                         parallel_threshold: int = 64) -> List[dict]:
    """Stage-1 work-list: one descriptor per (input file, row group); an
    input file is a WAL segment, a quarantine file or a bootstrap base.

    Fusing the parquet DECODE into the stage-1 task (instead of Ray's
    unfused ReadParquet → map_batches chain) removes a full object-store
    round trip of the entire WAL per commit — measured 3.6-4.4 s → ~1.0 s
    for the 1 GB/2M-event stage 1 at 8 CPUs, and it scales with CPUs up
    to the row-group count. Footers are read driver-side for few files
    and fanned out as Ray tasks past ``parallel_threshold`` (a 100 TB WAL
    has thousands of segments; footer reads must not serialize on the
    driver)."""

    def footers(paths: List[str]) -> List[dict]:
        from etl_ray.util import resolve_fs

        out = []
        for p in paths:
            f, lp = resolve_fs(p)
            with f.open_input_file(lp) as fh:
                ngroups = pq.ParquetFile(fh).metadata.num_row_groups
            out.extend({"path": p, "rg": g} for g in range(ngroups))
        return out

    if len(seg_paths) <= parallel_threshold:
        return footers(seg_paths)
    import ray

    nchunk = max(1, len(seg_paths) // 32)
    chunks = [seg_paths[i:i + nchunk]
              for i in range(0, len(seg_paths), nchunk)]
    fn = ray.remote(num_cpus=0.25)(footers)
    return [d for part in ray.get([fn.remote(c) for c in chunks])
            for d in part]


class FragmentReadWriter:
    """Stage 1 with the parquet decode fused into the task: each input row
    is a (path, rg) descriptor from ``rowgroup_descriptors``; the task
    reads exactly its row group where it runs, slices it into
    ``config.batch_size`` chunks and runs the normal FragmentWriter on
    each — identical fragments/stats, no input bytes through the object
    store. ``pre_map`` (a picklable table → table function) runs on each
    row group before validation; ``min_seq`` is the Validator's lowest
    valid sequence number."""

    def __init__(self, config: EngineConfig, target_schema,
                 salted_parts, exchange_dir: str, n_buckets: int,
                 pre_map=None, min_seq: int = 0):
        self.inner = FragmentWriter(config, target_schema, salted_parts,
                                    exchange_dir, n_buckets, min_seq)
        self.batch_size = config.batch_size
        self.pre_map = pre_map

    def __call__(self, desc: pa.Table) -> pa.Table:
        from etl_ray.util import resolve_fs

        outs = []
        for row in desc.to_pylist():
            f, lp = resolve_fs(row["path"])
            with f.open_input_file(lp) as fh:
                t = pq.ParquetFile(fh).read_row_group(row["rg"])
            if self.pre_map is not None:
                t = self.pre_map(t)
            for i in range(0, len(t), self.batch_size):
                outs.append(self.inner(t.slice(i, self.batch_size)))
        if not outs:
            return FRAG_STATS_SCHEMA.empty_table()
        return pa.concat_tables(outs)


def bucket_descriptors(frag_stats, n_buckets: int) -> List[dict]:
    """Stage-2 work-list from stage-1 stats (tiny, driver-side): one
    descriptor per bucket listing its (fragment file, row group) pairs."""
    by_bucket: dict = {}
    for row in frag_stats.itertuples(index=False):
        d = by_bucket.setdefault(
            int(row.bucket), {"bucket": int(row.bucket), "files": [],
                              "rgs": [], "rows": 0})
        d["files"].append(row.file)
        d["rgs"].append(int(row.row_group))
        d["rows"] += int(row.rows)
    return [by_bucket[k] for k in sorted(by_bucket)]


class ApplyBucket:
    """Stage 2: read one bucket's record batches as written and apply them
    per shard in one ApplyShards call (LWW delta write / quarantine
    write)."""

    def __init__(self, lake_dir: str, commit_id: str, config: EngineConfig,
                 exchange_dir: str):
        from etl_ray.stages.apply import ApplyShards

        self.inner = ApplyShards(lake_dir, commit_id, config)
        self.exchange_dir = exchange_dir

    def _bucket_table(self, row: dict) -> pa.Table:
        batches = []
        for f, rg in zip(row["files"], row["rgs"]):
            # the bucket's record batch is a zero-copy view of the mapped
            # file (no decode); it keeps the mapping alive past the close
            with pa.memory_map(os.path.join(self.exchange_dir, f)) as mm:
                batches.append(pa.Table.from_batches(
                    [pa.ipc.open_file(mm).get_batch(rg)]))
        return pa.concat_tables(batches, promote_options="default")

    def __call__(self, desc: pa.Table) -> pa.Table:
        from etl_ray.stages.apply import STATS_SCHEMA

        outs = [self.inner(self._bucket_table(row))
                for row in desc.to_pylist()]
        if not outs:
            return STATS_SCHEMA.empty_table()
        return pa.concat_tables(outs)


def cleanup_exchange(lake_dir: str, commit_id: str = None,
                     root: str = None) -> None:
    """Remove one commit's fragments (all of them without ``commit_id``),
    and the lake's exchange dir once it is empty."""
    base = _exchange_base(lake_dir, root)
    target = os.path.join(base, commit_id) if commit_id else base
    shutil.rmtree(target, ignore_errors=True)
    try:
        os.rmdir(base)
    except OSError:
        pass  # absent, or another commit's fragments are still there
