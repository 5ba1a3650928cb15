"""Lake read path (merge-on-read) and bootstrap.

Reading is embarrassingly parallel and involves NO shuffle: the lake is
already hash-partitioned by doc_id, so each partition's base+delta runs are
merged on their own (LWW by sequence_number, tombstones dropped). The
work-list (one descriptor per partition) is scouted driver-side from the
manifest and packed into at most two read tasks per cluster CPU
(``util.task_count``); each task merges its partitions one at a time, so
memory per call is still one partition. The data moves only inside
distributed tasks.

Lake file format: every Parquet file the engine writes into the lake
(deltas, quarantine files, compacted and bootstrap bases, signature files)
goes through ``write_file``, and the stage-1 exchange fragments and the
streaming compaction writer take the same ``write_options``. The encoding
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
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.config import EngineConfig
from etl_ray.schema import conform
from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest

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
            pass  # plain, even where a fragment dictionary-encoded it
        elif (pa.types.is_dictionary(t) or pa.types.is_string(t)
              or pa.types.is_large_string(t)):
            dict_cols.append(path)
        elif pa.types.is_list(t) or pa.types.is_large_list(t):
            walk(path + ".list.element", t.value_type)

    for f in schema:
        walk(f.name, f.type)
    return {"use_dictionary": dict_cols, "column_encoding": encodings}


def write_file(table: pa.Table, path: str) -> None:
    """Write one lake Parquet file atomically (tmp + rename), creating its
    directory, in the lake file format."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, **write_options(table.schema))
    os.replace(tmp, path)


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
        if columns:
            # prune at the read: fetch only requested columns plus the
            # merge-control set. For the flagship table the tokens column is
            # ~95% of the bytes — a doc_id-only read must not touch it.
            need = set(columns) | {"doc_id", "sequence_number", "op"}
            self.read_columns = [f.name for f in self.schema if f.name in need]
            self.read_schema = pa.schema(
                [f for f in self.schema if f.name in need])
        else:
            self.read_columns = None
            self.read_schema = self.schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            files = row["files"]
            tables = [
                read_file(os.path.join(self.lake_dir, f), self.read_columns)
                for f in files
            ]
            merged = merge_runs(
                tables, drop_deletes=True, target_schema=self.read_schema
            )
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


def partition_descriptors(manifest: Manifest) -> List[dict]:
    return [
        {"part": k, "files": list(p.files)}
        for k, p in sorted(manifest.partitions.items())
        if p.files
    ]


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
    descs = partition_descriptors(manifest)
    if not descs:
        schema = manifest.schema or pa.schema([pa.field("doc_id", pa.string())])
        return rd.from_arrow(schema.empty_table())
    return descriptor_dataset(descs, task_count(len(descs))).map_batches(
        MergeRead(lake_dir, manifest.schema_hex, include_seq, columns),
        batch_format="pyarrow",
        batch_size=1,  # one partition per call (see util.descriptor_dataset)
    )


def read_quarantine(lake_dir: str) -> pa.Table:
    """All quarantined events with reasons (driver-side; quarantine is small
    by design — poison events, not data)."""
    manifest = Manifest.load(lake_dir)
    if not manifest.quarantine_files:
        return pa.table({"__reason": pa.array([], type=pa.string())})
    tabs = [
        pq.read_table(os.path.join(lake_dir, f))
        for f in manifest.quarantine_files
    ]
    return pa.concat_tables(tabs, promote_options="default")


def bootstrap(base_path: str, lake_dir: str, config: EngineConfig) -> Manifest:
    """Load an initial base table (FIXTURES.md F1) into an empty lake as
    generation-0 base files, one per partition. Base rows get
    sequence_number=-1 so any changelog event wins LWW against them."""
    import ray.data as rd

    manifest = Manifest.load(lake_dir)
    if manifest.version != 0:
        raise ValueError("bootstrap requires an empty lake")
    cfg = config

    def assign(batch: pa.Table) -> pa.Table:
        part = cfg.part_fn(batch["doc_id"].combine_chunks(), cfg.num_partitions)
        if "sequence_number" not in batch.column_names:
            batch = batch.append_column(
                "sequence_number", pa.array(np.full(len(batch), -1, np.int64))
            )
        return batch.append_column("__part", pa.array(part))

    def write_base(group: pa.Table) -> pa.Table:
        part = group["__part"][0].as_py()
        out = group.drop_columns(["__part"]).sort_by(
            [("doc_id", "ascending")])
        rel = os.path.join(f"part={part}", f"base-g1-p{part}.parquet")
        write_file(out, os.path.join(lake_dir, rel))
        return pa.table(
            {"part": [part], "rows": [len(out)], "file": [rel],
             "max_seq": [-1]}
        )

    ds = rd.read_parquet(base_path).map_batches(
        assign, batch_format="pyarrow", batch_size=cfg.batch_size
    )
    # a plain function runs as a task pool: it holds no CPUs while the
    # groupby's sort runs (a fixed actor pool did, and hung at 1-2 CPUs)
    stats = (
        ds.groupby("__part")
        .map_groups(write_base, batch_format="pyarrow")
        .to_pandas()
    )
    schema = pq.read_schema(base_path)
    if "sequence_number" not in schema.names:
        schema = schema.append(pa.field("sequence_number", pa.int64()))
    manifest.num_partitions = cfg.num_partitions
    manifest.version = 1
    manifest.set_schema(schema)
    for row in stats.itertuples(index=False):
        p = manifest.partition(int(row.part))
        p.files = [row.file]
        p.base_gen = 1
    manifest.lineage["rows_written"] += int(stats["rows"].sum())
    manifest.lineage["commits"].append(
        {"commit_id": "bootstrap", "rows_written": int(stats["rows"].sum())}
    )
    manifest.commit()
    return manifest
