"""Compaction: merge a partition's base+delta runs into a new base file.

LSM maintenance: apply keeps writing small sorted delta runs; when a
partition accumulates >= ``compact_min_deltas`` deltas, compaction sort-merge
dedups (LWW) base ∪ deltas into ``base-g<gen>-p<k>.parquet``, DROPS
tombstones (safe: every live file of the partition participates), and
commits a new manifest that swaps the file list atomically. Deterministic
file names (gen = new manifest version) make a crashed compaction replayable.
A partition that fits in memory is merged whole and written by
``lake.write_file``; a larger one streams through
``stages/streaming_merge.py`` in the same lake file format.

No shuffle: the lake is already partitioned; at most two tasks per cluster
CPU, each compacting a contiguous slice of the partitions one at a time.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import pyarrow as pa

from etl_ray.config import EngineConfig
from etl_ray.lake import read_file, write_file
from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest


class CompactGroup:
    def __init__(self, lake_dir: str, schema_hex: str, new_gen: int,
                 streaming_threshold_bytes: int = 512 << 20,
                 rows_per_range: int = 1 << 20):
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        self.schema = schema_from_hex(schema_hex)
        self.new_gen = new_gen
        self.streaming_threshold_bytes = streaming_threshold_bytes
        self.rows_per_range = rows_per_range

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            t0 = time.monotonic()
            part = row["part"]
            paths = [os.path.join(self.lake_dir, f) for f in row["files"]]
            rel = os.path.join(
                f"part={part}", f"base-g{self.new_gen}-p{part}.parquet"
            )
            path = os.path.join(self.lake_dir, rel)
            total_bytes = sum(os.path.getsize(p) for p in paths)
            mode = "memory"
            if total_bytes > self.streaming_threshold_bytes:
                # bounded-memory range-sliced sort-merge (scale path for
                # partitions larger than a worker heap); the output lands
                # in the partition's own directory, beside its inputs
                from etl_ray.stages.streaming_merge import (
                    streaming_merge_files,
                )

                try:
                    n = streaming_merge_files(
                        paths, path + ".tmp", target_schema=self.schema,
                        drop_deletes=True, drop_columns=["op"],
                        rows_per_range=self.rows_per_range,
                    )
                    os.replace(path + ".tmp", path)
                    mode = "streaming"
                except ValueError:
                    mode = "memory"  # stats missing → fall back
            if mode == "memory":
                tables = [read_file(p) for p in paths]
                merged = merge_runs(
                    tables, drop_deletes=True, target_schema=self.schema
                )
                if "op" in merged.column_names:
                    merged = merged.drop_columns(["op"])
                write_file(merged, path)
                n = len(merged)
            rows.append(
                {
                    "part": part,
                    "rows": n,
                    "file": rel,
                    "n_inputs": len(paths),
                    "mode": mode,
                    "wall_sec": time.monotonic() - t0,
                }
            )
        return pa.Table.from_pylist(rows)


def compact(
    lake_dir: str,
    config: Optional[EngineConfig] = None,
    *,
    min_deltas: Optional[int] = None,
    force: bool = False,
) -> dict:
    """Compact eligible partitions; returns a summary dict. ``force``
    compacts every partition that has any delta or >1 file.
    The partitions run in at most two tasks per cluster CPU, each
    compacting a contiguous slice of them."""
    config = config or EngineConfig()
    if min_deltas is None:
        min_deltas = config.compact_min_deltas
    manifest = Manifest.load(lake_dir)
    todo = []
    for k, p in sorted(manifest.partitions.items()):
        n_delta = sum(1 for f in p.files if "delta-" in os.path.basename(f))
        if (force and n_delta >= 1) or n_delta >= min_deltas:
            todo.append({"part": k, "files": list(p.files)})
    if not todo:
        return {"compacted_partitions": 0, "rows": 0}

    new_version = manifest.version + 1
    from etl_ray.util import map_descriptors

    # CompactGroup is looked up on the module at call time so an
    # instrumented subclass can stand in for it
    stats = map_descriptors(
        CompactGroup(lake_dir, manifest.schema_hex, new_version,
                     config.compact_streaming_threshold_bytes,
                     config.compact_rows_per_range),
        todo)

    manifest.version = new_version
    total_rows = 0
    for row in stats.to_pylist():
        p = manifest.partition(row["part"])
        p.files = [row["file"]]
        p.base_gen = new_version
        total_rows += row["rows"]
    manifest.lineage["commits"].append(
        {
            "commit_id": f"compact-g{new_version}",
            "compacted_partitions": len(stats),
            "rows": total_rows,
        }
    )
    manifest.commit()
    return {"compacted_partitions": len(stats), "rows": total_rows}
