"""Lake read path (merge-on-read) and the lake file format.

Reading is embarrassingly parallel and involves NO shuffle: the lake is
already hash-partitioned by doc_id, so each partition's base+delta runs are
merged on their own (LWW by sequence_number, tombstones dropped). A
partition's files are its base (when ``base_gen > 0``) and then its delta
runs in commit order; any of them, the base included, may hold tombstones
and an ``op`` column (a promoted delta, a folded run, a held delete), so
every reader merges them all through ``merge_runs(drop_deletes=True)``. The
work-list (one descriptor per partition) is scouted driver-side from the
manifest and packed into at most two read tasks per cluster CPU
(``util.task_count``); each task merges its partitions one at a time, so
memory per call is still one partition. The data moves only inside
distributed tasks.

Lake file format: every Parquet file the engine writes into the lake
(deltas, quarantine files, compacted bases, signature files) goes through
``write_file``, which fsyncs it before the rename and its directory
after, so a manifest never lists a file whose bytes or directory entry
may not have reached the disk. (Exchange
fragments are transient Arrow IPC files, not lake files, and are not
synced: a retry rebuilds them.) The encoding
follows from the Arrow schema alone: dictionary encoding only on string
and Arrow dictionary columns other than ``doc_id``;
``DELTA_BINARY_PACKED`` on integer columns and integer list elements
(``sequence_number``, ``n_tok``, ``tokens.list.element``); everything
else plain. pyarrow's default dictionary-encodes every column, but token
ids are drawn from a ~50k vocabulary, so a base file's token dictionary
held ~37k distinct ids for ~66k values: the dictionary page was half the
column chunk and building it was most of the write. ``doc_id`` is unique
within every file, so a dictionary on it is pure overhead. Not
``BYTE_STREAM_SPLIT``: DuckDB 1.0 reads it only for FLOAT/DOUBLE, while
it reads ``DELTA_BINARY_PACKED``.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Union

import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest
from etl_ray.util import atomic_path

CONTROL_DROP = ["op", "__reason", "__shard"]


def write_options(schema: pa.Schema) -> dict:
    """``use_dictionary`` and ``column_encoding`` keywords for
    ``pq.write_table`` / ``pq.ParquetWriter``, derived from ``schema``
    (rule in the module docstring). The codec is left to the caller."""
    dict_cols: List[str] = []
    encodings: dict = {}

    def walk(path: str, t: pa.DataType) -> None:
        if pa.types.is_integer(t):
            encodings[path] = "DELTA_BINARY_PACKED"
        elif path == "doc_id":
            pass  # plain, even where the WAL dictionary-encoded it
        elif (pa.types.is_dictionary(t) or pa.types.is_string(t)
              or pa.types.is_large_string(t)):
            dict_cols.append(path)
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            walk(path + ".list.element", t.value_type)

    for f in schema:
        walk(f.name, f.type)
    return {"use_dictionary": dict_cols, "column_encoding": encodings}


def write_file(tables: Union[pa.Table, Iterable[pa.Table]],
               path: str) -> int:
    """Write one lake Parquet file atomically and durably
    (``util.atomic_path``: tmp, fsync, rename, directory fsync), creating
    its directory, in the lake file format. ``tables`` is one
    table or an iterable of tables under one schema, each written as it
    comes, so a caller can stream a file larger than memory. Returns the
    rows written."""
    if isinstance(tables, pa.Table):
        tables = [tables]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    writer, rows = None, 0
    with atomic_path(path) as tmp:
        try:
            for t in tables:
                if writer is None:
                    writer = pq.ParquetWriter(tmp, t.schema,
                                              **write_options(t.schema))
                writer.write_table(t)
                rows += len(t)
        finally:
            if writer is not None:
                writer.close()
    return rows


def read_file(path: str, columns: Optional[List[str]] = None) -> pa.Table:
    """One lake Parquet file, opened once. With ``columns``, reads the ones
    the file has: older files may predate evolved columns, and conform (in
    merge_runs) null-fills what is missing. ``ParquetFile.read`` skips
    ``pq.read_table``'s dataset layer, which costs more than the decode on
    a lake of small delta files."""
    with pq.ParquetFile(path) as f:
        if columns is not None:
            avail = set(f.schema_arrow.names)
            columns = [c for c in columns if c in avail]
        return f.read(columns=columns)


def live_rows(lake_dir: str, files: List[str], schema: pa.Schema,
              columns: Optional[List[str]] = None) -> pa.Table:
    """Live rows of one partition: each of ``files`` read once, LWW-merged
    with tombstones dropped, conformed to ``schema`` projected to
    ``columns`` (all of them by default). Every partition-state reader
    (scan, lake diff, signature index) goes through here."""
    if columns is not None:
        keep = set(columns)
        schema = pa.schema([f for f in schema if f.name in keep])
        columns = schema.names
    tables = [read_file(os.path.join(lake_dir, f), columns) for f in files]
    if not tables:
        return schema.empty_table()
    return merge_runs(tables, drop_deletes=True, target_schema=schema)


class MergeRead:
    """Merge reader: one call merges one partition (descriptor row) — reads
    that partition's live files, LWW-merges, returns the Arrow table. The
    schema (from the manifest, decoded once per instance) conforms old
    files to the current evolved schema."""

    def __init__(self, lake_dir: str, schema_hex: str, include_seq: bool,
                 columns: Optional[List[str]]):
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        self.schema = schema_from_hex(schema_hex)
        self.include_seq = include_seq
        self.columns = columns
        # prune at the read: fetch only requested columns plus the
        # merge-control set. For the flagship table the tokens column is
        # ~95% of the bytes — a doc_id-only read must not touch it.
        self.read_columns = (
            list(columns) + ["doc_id", "sequence_number", "op"]
            if columns else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            merged = live_rows(self.lake_dir, row["files"], self.schema,
                               self.read_columns)
            drop = [c for c in CONTROL_DROP if c in merged.column_names]
            if not self.include_seq and "sequence_number" in merged.column_names:
                drop.append("sequence_number")
            merged = merged.drop_columns(drop)
            if self.columns:
                merged = merged.select(self.columns)
            outs.append(merged)
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs, promote_options="default")


def read_lake(
    lake_dir: str,
    *,
    include_seq: bool = False,
    columns: Optional[List[str]] = None,
    version: Optional[int] = None,
):
    """Committed state of the lake as a lazy ``ray.data.Dataset``
    (streaming merge-on-read, no shuffle): at most two read tasks per
    cluster CPU, each taking a contiguous slice of the partitions and
    merging them one per call. ``version`` reads a
    HISTORICAL snapshot (time travel) — any past manifest version
    reconstructs exactly, since data files are immutable once listed and
    only ``gc()`` removes superseded ones."""
    import ray.data as rd

    from etl_ray.util import descriptor_dataset, task_count

    manifest = Manifest.load(lake_dir, version=version)
    descs = [{"part": k, "files": list(p.files)}
             for k, p in sorted(manifest.partitions.items()) if p.files]
    if not descs:
        schema = manifest.schema or pa.schema([pa.field("doc_id", pa.string())])
        return rd.from_arrow(schema.empty_table())
    return descriptor_dataset(descs, task_count(len(descs))).map_batches(
        MergeRead(lake_dir, manifest.schema_hex, include_seq, columns),
        batch_format="pyarrow",
        batch_size=1,  # one partition per call (see util.descriptor_dataset)
    )


def read_quarantine(lake_dir: str,
                    columns: Optional[List[str]] = None) -> pa.Table:
    """All quarantined events with reasons, or their ``columns`` only
    (driver-side; quarantine is small by design — poison events, not
    data)."""
    manifest = Manifest.load(lake_dir)
    if not manifest.quarantine_files:
        return pa.table({"__reason": pa.array([], type=pa.string())})
    tabs = [read_file(os.path.join(lake_dir, f), columns)
            for f in manifest.quarantine_files]
    return pa.concat_tables(tabs, promote_options="default")
