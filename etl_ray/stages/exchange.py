"""Storage-backed exchange: the engine's hash partitioner.

Ray Data's generic all-to-all operators (sort shuffle / repartition) move
every row through the object store and, measured on this workload
(1 GB of list<int32>-heavy rows), run 5-30x slower than a disk exchange
(sort-based groupby: 174 s; repartition(shuffle=True): 406 s; this: ~7 s).
Production lakehouse ingest does the same thing — partition by key into
bucket files on shared storage, then per-bucket reducers — so the exchange
doubles as the natural multi-node path (the exchange dir lives next to the
lake on the shared filesystem / object store).

  Stage 1 (one Ray task per WAL row group, stateless): validate each
    batch, sort rows by bucket = mix(shard) % n_buckets, write ONE fragment
    file per batch, ONE ROW GROUP (parquet) or RECORD BATCH (Arrow IPC) per
    bucket under ``<exchange>/frag-*`` (tmp+rename atomic). The returned
    stats table carries the (file, row_group) -> bucket index, so no
    per-bucket directories and no small-file storm: fragment file count ==
    batch count, not batch x bucket (the round-1 layout peaked at ~15k
    tiny files per commit at sf0.1; this writes ~60). Container format per
    ``EngineConfig.exchange_format``: parquet for disk/shared-fs (half the
    bytes), IPC for RAM-backed exchange roots (near-zero encode/decode).
  Stage 2 (one Ray task per bucket): each task reads exactly its
    row groups / record batches (row-group-granular parquet reads;
    memory-mapped zero-copy IPC) and runs the per-shard LWW apply
    (ApplyShards), pre-collapsing accumulated chunks per (__shard, doc_id)
    whenever they exceed ``apply_chunk_rows`` so a backlog bucket never
    materializes unbounded (max-by-seq is associative).

Both stages are plain ``ray.remote`` tasks (``util.map_descriptors``); the
driver gathers their stats tables in submission order, so manifests list
files in a deterministic order.

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
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.stages.validate import Validator

EXCHANGE_DIR = "_exchange"

# Control columns that LWW winner selection / routing / stats need. In
# split-payload mode ONLY these (plus __shard and a row pointer) are
# bucket-sorted and shuffled eagerly; every other column is "payload" and
# is written once, in arrival order, gathered winners-only in stage 2.
KEY_EXCHANGE_COLS = ("op", "doc_id", "sequence_number")

FRAG_STATS_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int64()),
        pa.field("rows", pa.int64()),
        pa.field("quarantined", pa.int64()),
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


def exchange_path(lake_dir: str, commit_id: str, root: str = None) -> str:
    if root:
        tag = os.path.basename(os.path.normpath(lake_dir)) or "lake"
        return os.path.join(root, tag, commit_id)
    return os.path.join(lake_dir, EXCHANGE_DIR, commit_id)


class FragmentWriter:
    """Stage 1: validate + bucket-sort + one-file-per-batch fragment write.
    A plain callable class; the Validator (compiled schema, hash fns) is
    built once, on the driver, and shipped with the instance."""

    def __init__(self, config: EngineConfig, target_schema, salted_parts,
                 exchange_dir: str, n_buckets: int):
        self.validator = Validator(config, target_schema, salted_parts)
        self.exchange_dir = exchange_dir
        self.n_buckets = n_buckets
        self.compression = config.exchange_compression
        self.fmt = config.exchange_format
        self.ipc_compression = config.exchange_ipc_compression
        sp = config.exchange_split_payload
        # auto: split only for IPC fragments (the winner gather needs
        # zero-copy mmap random access — tmpfs / shared-fs roots)
        self.split_payload = (self.fmt == "ipc") if sp is None else sp
        # columns observed high-cardinality in ANY batch are permanently
        # excluded (cheap negative cache); the dict decision itself is
        # re-made per batch — a first batch of bursty same-doc updates
        # must not lock dictionary encoding in for doc_id forever
        self._never_dict: set = set()

    def _shrink(self, t: pa.Table) -> pa.Table:
        """Bytes-per-event reduction before the exchange write: __shard
        narrows to int32, and low-cardinality string columns (op, source,
        ...) dictionary-encode — decoded back on the consumer side
        (ApplyBucket), so nothing downstream changes. doc_id-style
        high-cardinality columns are left alone."""
        i = t.schema.get_field_index("__shard")
        t = t.set_column(i, "__shard", pc.cast(t["__shard"], pa.int32()))
        for name in t.column_names:
            if name in self._never_dict:
                continue
            f = t.schema.field(name)
            if not (pa.types.is_string(f.type)
                    or pa.types.is_large_string(f.type)):
                continue
            if pa.types.is_dictionary(f.type):
                continue
            nd = pc.count_distinct(t[name]).as_py() or 0
            if nd > 1024:
                # globally high-cardinality column (doc_id): never again
                # spend the count_distinct or risk a locally-bursty batch
                # dict-encoding it
                self._never_dict.add(name)
                continue
            if nd <= min(1024, max(16, len(t) // 8)):
                i = t.schema.get_field_index(name)
                t = t.set_column(
                    i, name, pc.dictionary_encode(
                        t[name].combine_chunks()))
        return t

    def _write_ipc(self, path: str, table: pa.Table, bucket_ids, starts,
                   ends, record) -> None:
        # one IPC record batch per bucket. The encode is ~free; optional
        # buffer compression trades CPU for exchange bytes. combine_chunks
        # on the WHOLE table first so every slice shares one dictionary
        # (the IPC file format forbids dictionary replacement).
        table = table.combine_chunks()
        opts = pa.ipc.IpcWriteOptions(
            compression=self.ipc_compression) if self.ipc_compression \
            else None
        with pa.OSFile(path + ".tmp", "wb") as sink:
            with pa.ipc.new_file(sink, table.schema, options=opts) as w:
                for rg, (s, e) in enumerate(zip(starts, ends)):
                    piece = table.slice(int(s), int(e - s))
                    batches = piece.combine_chunks().to_batches()
                    if len(batches) != 1:  # defensive: batch idx == rg
                        one = pa.Table.from_batches(batches).combine_chunks()
                        batches = one.to_batches(max_chunksize=len(one))
                    w.write_batch(batches[0])
                    record(rg, int(bucket_ids[s]), len(piece))
        os.replace(path + ".tmp", path)

    def _write_parquet(self, path: str, table: pa.Table, bucket_ids, starts,
                       ends, record) -> None:
        with pq.ParquetWriter(path + ".tmp", table.schema,
                              compression=self.compression) as w:
            for rg, (s, e) in enumerate(zip(starts, ends)):
                piece = table.slice(int(s), int(e - s))
                w.write_table(piece, row_group_size=len(piece))
                record(rg, int(bucket_ids[s]), len(piece))
        os.replace(path + ".tmp", path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return FRAG_STATS_SCHEMA.empty_table()
        batch = self.validator(batch)
        shard = batch["__shard"].to_numpy(zero_copy_only=False)
        is_q = shard == QUARANTINE_SHARD
        os.makedirs(self.exchange_dir, exist_ok=True)
        ext = "arrow" if self.fmt == "ipc" else "parquet"
        tag = uuid.uuid4().hex
        out = {"bucket": [], "rows": [], "quarantined": [], "row_group": [],
               "file": []}
        write = self._write_ipc if self.fmt == "ipc" else self._write_parquet

        def split_and_write(t: pa.Table, bucket: np.ndarray, rel: str):
            order = np.argsort(bucket, kind="stable")
            sb = t.take(pa.array(order))
            bs = bucket[order]
            bounds = np.flatnonzero(np.diff(bs)) + 1
            starts = np.concatenate([[0], bounds]).astype(np.int64)
            ends = np.concatenate([bounds, [len(bs)]]).astype(np.int64)

            def record(rg, b, n):
                out["bucket"].append(b)
                out["rows"].append(n)
                out["quarantined"].append(n if b == self.n_buckets else 0)
                out["row_group"].append(rg)
                out["file"].append(rel)

            write(os.path.join(self.exchange_dir, rel), sb, bs, starts,
                  ends, record)

        if is_q.any():
            # quarantine rows go to their OWN fragment: they are the only
            # rows that need the __reason column, so valid fragments drop
            # it entirely (an all-null string column still costs an offsets
            # buffer per row in IPC)
            qt = batch.filter(pa.array(is_q))
            split_and_write(self._shrink(qt),
                            np.full(len(qt), self.n_buckets, np.int64),
                            f"frag-{tag}-q.{ext}")
            batch = batch.filter(pa.array(~is_q))
            shard = shard[~is_q]
        if len(batch):
            batch = batch.drop_columns(["__reason"])
            pcols = [c for c in batch.column_names
                     if c not in KEY_EXCHANGE_COLS and c != "__shard"]
            if self.split_payload and self.fmt == "ipc" and pcols:
                n = len(batch)
                # payload: arrival order, ONE record batch, written once —
                # the multi-KB rows are NEVER bucket-sorted here (that take
                # was a full extra payload copy per commit). No _shrink:
                # payload schemas stay uniform across fragments so the
                # consumer can concat the mmaps zero-copy.
                ptab = batch.select(pcols).combine_chunks()
                ppath = os.path.join(self.exchange_dir,
                                     f"frag-{tag}-p.arrow")
                opts = pa.ipc.IpcWriteOptions(
                    compression=self.ipc_compression) \
                    if self.ipc_compression else None
                with pa.OSFile(ppath + ".tmp", "wb") as sink:
                    with pa.ipc.new_file(sink, ptab.schema,
                                         options=opts) as w:
                        w.write_table(ptab, max_chunksize=max(n, 1))
                os.replace(ppath + ".tmp", ppath)
                # keys + row pointer into the payload file: tiny take
                ktab = batch.select(
                    [c for c in KEY_EXCHANGE_COLS
                     if c in batch.column_names] + ["__shard"])
                ktab = ktab.append_column(
                    "__pidx", pa.array(np.arange(n, dtype=np.int32)))
                split_and_write(self._shrink(ktab),
                                _shard_bucket(shard, self.n_buckets),
                                f"frag-{tag}-k.arrow")
            else:
                split_and_write(self._shrink(batch),
                                _shard_bucket(shard, self.n_buckets),
                                f"frag-{tag}.{ext}")
        return pa.table(
            {
                "bucket": pa.array(out["bucket"], pa.int64()),
                "rows": pa.array(out["rows"], pa.int64()),
                "quarantined": pa.array(out["quarantined"], pa.int64()),
                "file": pa.array(out["file"], pa.string()),
                "row_group": pa.array(out["row_group"], pa.int64()),
            },
            schema=FRAG_STATS_SCHEMA,
        )


def rowgroup_descriptors(seg_paths: List[str],
                         parallel_threshold: int = 64) -> List[dict]:
    """Stage-1 work-list: one descriptor per (segment file, row group).

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
    each — identical fragments/stats, no WAL bytes through the object
    store. ``pre_map`` (a picklable table → table function) runs on each
    row group before validation."""

    def __init__(self, config: EngineConfig, target_schema,
                 salted_parts, exchange_dir: str, n_buckets: int,
                 pre_map=None):
        self.inner = FragmentWriter(config, target_schema, salted_parts,
                                    exchange_dir, n_buckets)
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
    """Stage 2: read one bucket's row groups, apply per shard (LWW delta
    write / quarantine write via ApplyShards). Accumulated chunks are
    pre-collapsed per (__shard, doc_id) at ``apply_chunk_rows`` so peak
    memory is bounded by the collapsed state + one chunk, not by the
    bucket's total backlog."""

    def __init__(self, lake_dir: str, commit_id: str, config: EngineConfig,
                 exchange_dir: str, n_buckets: int):
        from etl_ray.stages.apply import ApplyShards

        self.inner = ApplyShards(lake_dir, commit_id, config)
        self.exchange_dir = exchange_dir
        self.chunk_rows = config.apply_chunk_rows
        self.n_buckets = n_buckets
        self._mmaps: List = []
        # split-payload state: mmap'd arrival-order payload tables in
        # first-use order; __gpidx = per-file row index + the file's offset
        # into their zero-copy concatenation
        self._payload_tables: List[pa.Table] = []
        self._payload_offsets: dict = {}

    def _payload_offset(self, key_file: str) -> int:
        ppath = os.path.join(self.exchange_dir,
                             key_file[: -len("-k.arrow")] + "-p.arrow")
        if ppath not in self._payload_offsets:
            mm = pa.memory_map(ppath, "r")
            self._mmaps.append(mm)
            t = pa.ipc.open_file(mm).read_all()
            self._payload_offsets[ppath] = sum(
                len(x) for x in self._payload_tables)
            self._payload_tables.append(t)
        return self._payload_offsets[ppath]

    @staticmethod
    def _undo_shrink(t: pa.Table) -> pa.Table:
        """Reverse FragmentWriter._shrink: dictionary columns decode back
        to plain values and __shard widens to int64, so apply/merge logic
        sees the original schema."""
        for i, f in enumerate(t.schema):
            if pa.types.is_dictionary(f.type):
                t = t.set_column(
                    i, f.name, pc.cast(t.column(i), f.type.value_type))
        i = t.schema.get_field_index("__shard")
        if i >= 0 and t.schema.field(i).type != pa.int64():
            t = t.set_column(i, "__shard",
                             pc.cast(t["__shard"], pa.int64()))
        return t

    def _bucket_table(self, row: dict):
        from etl_ray.stages.merge import lww_last_per_keys

        # the quarantine bucket keeps EVERY poison event (never collapsed)
        collapsible = int(row["bucket"]) != self.n_buckets
        acc: List[pa.Table] = []
        acc_rows = 0
        # TRUE pre-collapse event count per shard: the LWW pre-collapse
        # below drops duplicate (shard, doc) rows before ApplyShards ever
        # counts them, so lineage/failure-ratio/salt stats must be taken
        # from these counts, not from len(group) downstream.
        true_counts: dict = {}
        for f, rg in zip(row["files"], row["rgs"]):
            path = os.path.join(self.exchange_dir, f)
            if f.endswith(".arrow"):
                # memory-mapped IPC: the bucket's record batch is a
                # zero-copy view (no decode). The map handle is kept for
                # the instance's lifetime so the view stays valid.
                mm = pa.memory_map(path, "r")
                self._mmaps.append(mm)
                t = pa.Table.from_batches(
                    [pa.ipc.open_file(mm).get_batch(rg)])
            else:
                t = pq.ParquetFile(path).read_row_group(rg)
            t = self._undo_shrink(t)
            if f.endswith("-k.arrow"):
                # split-payload key fragment: turn the per-file row pointer
                # into a global index over the concatenated payload mmaps
                off = self._payload_offset(f)
                gp = pc.add(pc.cast(t["__pidx"], pa.int64()), off)
                t = t.drop_columns(["__pidx"]).append_column("__gpidx", gp)
            for vc in pc.value_counts(t["__shard"]).to_pylist():
                true_counts[vc["values"]] = (
                    true_counts.get(vc["values"], 0) + vc["counts"])
            acc.append(t)
            acc_rows += len(t)
            if collapsible and acc_rows > self.chunk_rows and len(acc) > 1:
                merged = pa.concat_tables(acc, promote_options="default")
                merged = lww_last_per_keys(merged, ["__shard", "doc_id"])
                acc = [merged]
                acc_rows = len(merged)
        return pa.concat_tables(acc, promote_options="default"), true_counts

    def __call__(self, desc: pa.Table) -> pa.Table:
        from etl_ray.stages.apply import STATS_SCHEMA

        outs = []
        for row in desc.to_pylist():
            table, true_counts = self._bucket_table(row)
            if "__gpidx" in table.column_names:
                # winners-only payload gather: ApplyShards takes exactly
                # the LWW winners' rows from the mmap'd arrival-order
                # tables, per source file (a take against the CHUNKED
                # concat pays a ~10x fixed cost per call — measured 31k
                # rows from a 20-chunk list table: 0.96s vs 0.09s)
                stats = self.inner(table, payload=self._payload_tables)
            else:
                stats = self.inner(table)
            # restore pre-collapse rows_in per shard (ADVICE r02: the
            # failure-ratio denominator and hot-partition detection must
            # see real event counts, not collapsed ones)
            if len(stats):
                fixed = [true_counts.get(s, r) for s, r in zip(
                    stats["shard"].to_pylist(), stats["rows_in"].to_pylist())]
                stats = stats.set_column(
                    stats.schema.get_field_index("rows_in"), "rows_in",
                    pa.array(fixed, type=pa.int64()))
            outs.append(stats)
        if not outs:
            return STATS_SCHEMA.empty_table()
        return pa.concat_tables(outs)


def cleanup_exchange(lake_dir: str, commit_id: str = None,
                     root: str = None) -> None:
    if root:
        tag = os.path.basename(os.path.normpath(lake_dir)) or "lake"
        base = os.path.join(root, tag)
    else:
        base = os.path.join(lake_dir, EXCHANGE_DIR)
    target = os.path.join(base, commit_id) if commit_id else base
    shutil.rmtree(target, ignore_errors=True)
