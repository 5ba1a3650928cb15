"""Lake read path (merge-on-read) and bootstrap.

Reading is embarrassingly parallel and involves NO shuffle: the lake is
already hash-partitioned by doc_id, so each read task merges exactly one
partition's base+delta runs (LWW by sequence_number, tombstones dropped).
The work-list (one descriptor per partition) is scouted driver-side from the
manifest; the data moves only inside distributed tasks.
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


class MergeRead:
    """Actor-pool merge reader: one call merges one partition (descriptor
    row) — reads that partition's live files, LWW-merges, returns the Arrow
    table. Schema (from the manifest, loaded once per actor) conforms old
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

    def _read(self, path: str) -> pa.Table:
        if self.read_columns is None:
            return pq.read_table(path)
        # older files may predate evolved columns — intersect per file;
        # conform (in merge_runs) null-fills what's missing
        avail = set(pq.read_schema(path).names)
        cols = [c for c in self.read_columns if c in avail]
        return pq.read_table(path, columns=cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            files = row["files"]
            tables = [
                self._read(os.path.join(self.lake_dir, f)) for f in files
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
    concurrency: Optional[int] = None,
    use_actor_pool: bool = False,
    version: Optional[int] = None,
):
    """Committed state of the lake as a ``ray.data.Dataset`` (one block per
    partition; streaming merge-on-read, no shuffle). ``version`` reads a
    HISTORICAL snapshot (time travel) — any past manifest version
    reconstructs exactly, since data files are immutable once listed and
    only ``gc()`` removes superseded ones."""
    import ray.data as rd

    from etl_ray.util import descriptor_dataset

    manifest = Manifest.load(lake_dir, version=version)
    descs = partition_descriptors(manifest)
    if not descs:
        schema = manifest.schema or pa.schema([pa.field("doc_id", pa.string())])
        return rd.from_arrow(schema.empty_table())
    ds = descriptor_dataset(descs)
    ctor = (lake_dir, manifest.schema_hex, include_seq, columns)
    if use_actor_pool:
        if concurrency is None:
            import ray

            cpus = int(ray.cluster_resources().get("CPU", 4))
            concurrency = max(1, min(len(descs), cpus - 1))
        return ds.map_batches(
            MergeRead,
            fn_constructor_args=ctor,
            batch_format="pyarrow",
            batch_size=1,
            concurrency=concurrency,
            num_cpus=1,
        )
    return ds.map_batches(
        MergeRead(*ctor),
        batch_format="pyarrow",
        batch_size=1,  # one descriptor per task (see util.descriptor_dataset)
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
        path = os.path.join(lake_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        pq.write_table(out, tmp)
        os.replace(tmp, path)
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
