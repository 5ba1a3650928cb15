"""Bounded-memory sort-merge compaction for oversized partitions.

The in-memory merge (stages/merge.py) needs a whole partition in one worker
heap. At 100 TB even P=64k partitions can exceed that, so compaction can run
as a RANGE-SLICED streaming merge instead:

  1. Every delta/base file is sorted by doc_id on disk (the apply and
     compaction writers guarantee it), so parquet row-group statistics give
     tight (min, max) doc_id bounds per row group.
  2. Split points are derived from the union of all inputs' row-group
     minima, coarsened so one range ≈ ``rows_per_range`` rows.
  3. For each range [lo, hi): read only the matching rows from every input
     (predicate pushdown prunes row groups), LWW-merge in memory, append to
     a single ParquetWriter (in the lake file format, ``lake.write_options``)
     — the output is again globally sorted by doc_id.

Memory is bounded by the widest range, not the partition. Ranges are
processed sequentially inside one compaction task; partitions still compact
in parallel across the cluster.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from etl_ray.lake import write_options
from etl_ray.stages.merge import merge_runs


def _row_group_bounds(path: str, column: str = "doc_id"):
    """(min, max, rows) per row group from footer statistics only."""
    f = pq.ParquetFile(path)
    idx = f.schema_arrow.names.index(column) if column in f.schema_arrow.names else None
    if idx is None:
        return []
    out = []
    for rg in range(f.metadata.num_row_groups):
        col = f.metadata.row_group(rg).column(idx)
        st = col.statistics
        if st is None or not st.has_min_max:
            return []  # stats missing → caller falls back to in-memory
        out.append((st.min, st.max, f.metadata.row_group(rg).num_rows))
    return out


def split_points(paths: List[str], *, rows_per_range: int,
                 column: str = "doc_id") -> Optional[List[str]]:
    """Range split points covering all inputs, ~rows_per_range rows each.
    None when statistics are unavailable (fallback to in-memory merge)."""
    bounds = []
    for p in paths:
        b = _row_group_bounds(p, column)
        if b is None or b == []:
            if pq.ParquetFile(p).metadata.num_rows > 0:
                return None
            continue
        bounds.extend(b)
    if not bounds:
        return []
    bounds.sort(key=lambda x: x[0])
    points = []
    acc = 0
    for mn, _mx, rows in bounds:
        if acc >= rows_per_range and (not points or mn > points[-1]):
            points.append(mn)
            acc = 0
        acc += rows
    return points


def streaming_merge_files(
    paths: List[str],
    out_path: str,
    *,
    target_schema: pa.Schema,
    drop_deletes: bool = True,
    drop_columns: Optional[List[str]] = None,
    rows_per_range: int = 1 << 20,
    column: str = "doc_id",
) -> int:
    """Merge sorted runs into one sorted file with bounded memory.

    Returns total rows written. Caller handles tmp+rename atomicity.
    """
    points = split_points(paths, rows_per_range=rows_per_range, column=column)
    if points is None:
        raise ValueError("missing row-group statistics; use in-memory merge")
    edges = [None] + points + [None]
    datasets = [pads.dataset(p) for p in paths]
    field = pads.field(column)

    out_schema = target_schema
    if drop_columns:
        out_schema = pa.schema(
            [f for f in target_schema if f.name not in drop_columns])
    writer = pq.ParquetWriter(out_path, out_schema,
                              **write_options(out_schema))
    total = 0
    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            expr = None
            if lo is not None:
                expr = field >= lo
            if hi is not None:
                e2 = field < hi
                expr = e2 if expr is None else (expr & e2)
            tables = []
            for ds in datasets:
                t = ds.to_table(filter=expr) if expr is not None else ds.to_table()
                tables.append(t)
            merged = merge_runs(tables, drop_deletes=drop_deletes,
                                target_schema=target_schema)
            if drop_columns:
                keep = [c for c in merged.column_names
                        if c not in drop_columns]
                merged = merged.select(keep)
            if len(merged):
                writer.write_table(merged)
                total += len(merged)
    finally:
        writer.close()
    return total
