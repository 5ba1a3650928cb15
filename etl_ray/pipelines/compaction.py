"""Compaction: merge a partition's base+delta runs into a new base file.

LSM maintenance: apply keeps writing small sorted delta runs; when a
partition accumulates >= ``compact_min_deltas`` deltas, compaction sort-merge
dedups (LWW) base ∪ deltas into ``base-g<gen>-p<k>.parquet`` and commits a
new manifest that swaps the file list atomically. Deterministic file names
(gen = new manifest version) make a crashed compaction replayable.

Tombstones: a winning delete is dropped unless its doc_id has an event in
the quarantine. Recovery re-applies quarantined events with their original
sequence numbers, so such an event may be older than the delete and must
still lose to it. While any doc_id is held that way, the bases keep their
``op`` column; with an empty quarantine they drop it. The quarantine is
small by design, so ``compact`` reads its doc_ids once on the driver and
hands the whole set to every task.

One merge, range-sliced: every input is sorted by doc_id on disk (the
apply and compaction writers guarantee it), so each row group's footer
statistics bound its doc_ids. Split points over the union of those bounds
cut the partition into ranges of about ``ROWS_PER_RANGE`` rows; each range
reads only the row groups that overlap it, is LWW-merged in memory and
appended to the one output file (``lake.write_file``), which is again
sorted by doc_id. Memory is bounded by the widest range, not the
partition. A partition of at most ``ROWS_PER_RANGE`` rows, or one with an
input lacking statistics, is a single range: each file is read whole, once.

No shuffle: the lake is already partitioned; at most two tasks per cluster
CPU, each compacting a contiguous slice of the partitions one at a time.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_ray.config import EngineConfig
from etl_ray.lake import read_quarantine, write_file
from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest

# rows per merge range; CompactGroup reads it on the driver, so a lowered
# value reaches the worker tasks
ROWS_PER_RANGE = 1 << 20


def row_group_bounds(f: pq.ParquetFile) -> Optional[List[tuple]]:
    """``(min, max, rows, index)`` of ``doc_id`` per non-empty row group of
    the open file, from its footer; None when one lacks statistics."""
    md = f.metadata
    col = [md.schema.column(i).path
           for i in range(md.num_columns)].index("doc_id")
    out = []
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        if rg.num_rows == 0:
            continue
        st = rg.column(col).statistics
        if st is None or not st.has_min_max:
            return None
        out.append((st.min, st.max, rg.num_rows, i))
    return out


def split_points(bounds: List[tuple], rows_per_range: int) -> list:
    """Range edges over every input's row-group ``bounds``, about
    ``rows_per_range`` rows per range; [] for one range."""
    points, acc = [], 0
    for mn, _mx, rows, _i in sorted(bounds):
        if acc >= rows_per_range and (not points or mn > points[-1]):
            points.append(mn)
            acc = 0
        acc += rows
    return points


def merge_ranges(files: List[pq.ParquetFile], schema: pa.Schema,
                 rows_per_range: int,
                 held: Optional[pa.Array] = None) -> Iterator[pa.Table]:
    """LWW-merge the open sorted runs ``files`` range by range, in doc_id
    order, conformed to ``schema``. Winning deletes are dropped except
    those of doc_ids in ``held``; without ``held`` the ``op`` column goes
    too. Yields each non-empty range, or the one empty table when no row
    survives."""
    bounds = [row_group_bounds(f) for f in files]
    points = []
    if all(b is not None for b in bounds):
        points = split_points([x for b in bounds for x in b], rows_per_range)
    edges = [None] + points + [None]
    wrote = False
    for lo, hi in zip(edges[:-1], edges[1:]):
        if not points:
            tables = [f.read() for f in files]
        else:
            tables = []
            for f, b in zip(files, bounds):
                rgs = [i for mn, mx, _n, i in b
                       if (lo is None or mx >= lo) and (hi is None or mn < hi)]
                t = f.read_row_groups(rgs)
                if lo is not None:
                    t = t.filter(pc.field("doc_id") >= lo)
                if hi is not None:
                    t = t.filter(pc.field("doc_id") < hi)
                tables.append(t)
        # looked up on the module at call time so a timed stand-in sees it
        merged = merge_runs(tables, drop_deletes=True, target_schema=schema,
                            keep_deletes=held)
        if held is None and "op" in merged.column_names:
            merged = merged.drop_columns(["op"])
        if len(merged) or (hi is None and not wrote):
            wrote = True
            yield merged


class CompactGroup:
    def __init__(self, lake_dir: str, schema_hex: str, new_gen: int,
                 held: Optional[list] = None):
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        self.schema = schema_from_hex(schema_hex)
        self.new_gen = new_gen
        self.rows_per_range = ROWS_PER_RANGE
        self.held = pa.array(held, self.schema.field("doc_id").type) \
            if held else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            t0 = time.monotonic()
            part = row["part"]
            rel = os.path.join(
                f"part={part}", f"base-g{self.new_gen}-p{part}.parquet"
            )
            with contextlib.ExitStack() as stack:
                files = [stack.enter_context(
                    pq.ParquetFile(os.path.join(self.lake_dir, f)))
                    for f in row["files"]]
                n = write_file(
                    merge_ranges(files, self.schema, self.rows_per_range,
                                 self.held),
                    os.path.join(self.lake_dir, rel))
            rows.append(
                {
                    "part": part,
                    "rows": n,
                    "file": rel,
                    "n_inputs": len(files),
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

    quarantine = read_quarantine(lake_dir, columns=["doc_id"])
    held = sorted(pc.unique(quarantine["doc_id"]).drop_null().to_pylist()) \
        if len(quarantine) else None
    # CompactGroup is looked up on the module at call time so an
    # instrumented subclass can stand in for it
    stats = map_descriptors(
        CompactGroup(lake_dir, manifest.schema_hex, new_version, held), todo)

    manifest.version = new_version
    total_rows = 0
    for row in stats.to_pylist():
        p = manifest.partition(row["part"])
        p.files = [row["file"]]
        p.base_gen = new_version
        total_rows += row["rows"]
    manifest.commit({
        "commit_id": f"compact-g{new_version}",
        "compacted_partitions": len(stats),
        "rows": total_rows,
    })
    return {"compacted_partitions": len(stats), "rows": total_rows}
