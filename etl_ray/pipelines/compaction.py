"""Compaction: fold a partition's delta runs, and rewrite its base only when
they have grown to the base's size.

LSM maintenance: apply keeps writing small sorted delta runs; a partition
becomes eligible once it holds >= ``compact_min_deltas`` of them (any one
under ``force``). A partition's file list is its base first, when
``base_gen > 0``, then its delta runs in commit order, so it holds
``len(files) - (base_gen > 0)`` deltas. Each eligible partition takes one of
three kinds, decided in its task from the input files' footers:

- **promote**: no base, exactly one file and no ``force`` (so only at a
  ``min_deltas`` of 1). No data is written; the new manifest records
  that file as the base (``base_gen`` = the new version).
  The file keeps its name, its ``op`` column and its tombstones.
- **minor**: a base, no ``force``, more than one run, and the runs' data
  bytes below ``RATIO`` × the base's. Only the runs are LWW-merged, into one
  ``delta-g<gen>-p<k>.parquet`` that replaces them after the base, which is
  left untouched. The merge cannot see the base, so it keeps every
  tombstone and the ``op`` column.
- **major**: every other eligible partition (``force`` among them). Base
  and runs are LWW-merged into ``base-g<gen>-p<k>.parquet``, which
  replaces them all.

Data bytes are the row groups' ``total_byte_size`` from each footer, not
file sizes: a lake file of a few KB is mostly footer, and file sizes would
make any two small runs outweigh their base.

So a base is rewritten only once the runs beside it are ``RATIO`` times
its size, not on every round, and a round that folds runs writes only
their data (measured sweep of 0.5/1/2 in BASELINE.md). A base may
hold tombstones (a promoted delta, or a held delete, below): every reader
merges base and runs through ``merge_runs(drop_deletes=True)`` (``lake.
live_rows`` for scans, ``ops/cdc_diff``, ``ops/dedup_ivm``; IVM views and
export read through ``read_lake``), and the next major merge drops them.

Tombstones in a major merge: a winning delete is dropped unless its doc_id
has an event in the quarantine. Recovery re-applies quarantined events
with their original sequence numbers, so such an event may be older than
the delete and must still lose to it. A single-range base keeps its ``op``
column only if it still holds such a delete; a multi-range base keeps it
whenever the quarantine holds any doc_id (one file, one schema). The
quarantine is small by design, so ``compact`` reads its doc_ids once on
the driver and hands the whole set to every task.

One merge, range-sliced, for minor and major alike: every input is sorted
by doc_id on disk (the apply and compaction writers guarantee it), so each
row group's footer statistics bound its doc_ids. Split points over the
union of those bounds cut the inputs into ranges of about
``ROWS_PER_RANGE`` rows; each range reads only the row groups that
overlap it, is LWW-merged in memory and appended to the one output file
(``lake.write_file``), which is again sorted by doc_id. Memory is bounded
by the widest range, not the partition. Inputs of at most
``ROWS_PER_RANGE`` rows, or with one lacking statistics, are a single
range: each file is read whole, once.

Output names are deterministic (gen = new manifest version, and the kind
follows from the immutable inputs), so a crashed compaction reruns onto
the same files. No shuffle: the lake is already partitioned; at most two
tasks per cluster CPU, each compacting a contiguous slice of the
partitions one at a time.
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
# a base is rewritten once its delta runs' bytes reach this multiple of its
# own; below it the runs fold into one run. Read on the driver, likewise.
RATIO = 1.0

KINDS = ("promoted", "minor", "major")


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


def data_bytes(f: pq.ParquetFile) -> int:
    """Bytes of the open file's row groups, from its footer: the data a
    merge would rewrite, without the footer itself (most of a file of a
    few KB)."""
    md = f.metadata
    return sum(md.row_group(i).total_byte_size
               for i in range(md.num_row_groups))


def _holds_delete(t: pa.Table) -> bool:
    return bool(pc.any(pc.equal(t["op"], "delete")).as_py())


def merge_ranges(files: List[pq.ParquetFile], schema: pa.Schema,
                 rows_per_range: int,
                 held: Optional[pa.Array] = None,
                 keep_tombstones: bool = False) -> Iterator[pa.Table]:
    """LWW-merge the open sorted runs ``files`` range by range, in doc_id
    order, conformed to ``schema``. With ``keep_tombstones`` (a minor run)
    every winning delete and the ``op`` column stay. Otherwise winning
    deletes are dropped except those of doc_ids in ``held``, and ``op``
    goes too unless a held delete survives (any ``held`` keeps it when
    there is more than one range). Yields each non-empty range, or the one
    empty table when no row survives."""
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
        merged = merge_runs(tables, drop_deletes=not keep_tombstones,
                            target_schema=schema, keep_deletes=held)
        if (not keep_tombstones and "op" in merged.column_names
                and (held is None
                     or (not points and not _holds_delete(merged)))):
            merged = merged.drop_columns(["op"])
        if len(merged) or (hi is None and not wrote):
            wrote = True
            yield merged


class CompactGroup:
    def __init__(self, lake_dir: str, schema_hex: str, new_gen: int,
                 held: Optional[list] = None, force: bool = False):
        from etl_ray.schema import schema_from_hex

        self.lake_dir = lake_dir
        self.schema = schema_from_hex(schema_hex)
        self.new_gen = new_gen
        self.force = force
        self.rows_per_range = ROWS_PER_RANGE
        self.ratio = RATIO
        self.held = pa.array(held, self.schema.field("doc_id").type) \
            if held else None

    def _kind(self, files: List[pq.ParquetFile], has_base: bool) -> str:
        if not has_base:
            return "promoted" if len(files) == 1 and not self.force \
                else "major"
        if self.force or len(files) < 3:
            return "major"
        runs = sum(data_bytes(f) for f in files[1:])
        return "minor" if runs < self.ratio * data_bytes(files[0]) \
            else "major"

    def _compact(self, part: int, files: List[str], has_base: bool):
        """(kind, rows, lake-relative file, bytes written) of one
        partition."""
        with contextlib.ExitStack() as stack:
            opened = [stack.enter_context(
                pq.ParquetFile(os.path.join(self.lake_dir, f)))
                for f in files]
            kind = self._kind(opened, has_base)
            if kind == "promoted":
                return kind, opened[0].metadata.num_rows, files[0], 0
            if kind == "minor":
                opened = opened[1:]
            name = "delta" if kind == "minor" else "base"
            rel = os.path.join(f"part={part}",
                               f"{name}-g{self.new_gen}-p{part}.parquet")
            out = os.path.join(self.lake_dir, rel)
            n = write_file(
                merge_ranges(opened, self.schema, self.rows_per_range,
                             self.held, keep_tombstones=kind == "minor"),
                out)
        return kind, n, rel, os.path.getsize(out)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for row in batch.to_pylist():
            t0 = time.monotonic()
            kind, n, rel, nbytes = self._compact(
                row["part"], row["files"], row["has_base"])
            rows.append(
                {
                    "part": row["part"],
                    "rows": n,
                    "file": rel,
                    "n_inputs": len(row["files"]),
                    "wall_sec": time.monotonic() - t0,
                    "kind": kind,
                    "bytes": nbytes,
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
    """Compact eligible partitions and commit one manifest version; returns
    a summary dict: ``compacted_partitions``, ``rows``, the counts of
    ``promoted``, ``minor`` and ``major`` partitions, and
    ``bytes_written``. ``force`` makes every partition with any delta
    eligible and rewrites each one's base, a lone delta included. The
    partitions run in at most two tasks per cluster
    CPU, each compacting a contiguous slice of them."""
    config = config or EngineConfig()
    if min_deltas is None:
        min_deltas = config.compact_min_deltas
    manifest = Manifest.load(lake_dir)
    todo = []
    for k, p in sorted(manifest.partitions.items()):
        has_base = p.base_gen > 0
        n_delta = len(p.files) - has_base
        if (force and n_delta >= 1) or n_delta >= min_deltas:
            todo.append({"part": k, "files": list(p.files),
                         "has_base": has_base})
    summary = {"compacted_partitions": 0, "rows": 0,
               **{k: 0 for k in KINDS}, "bytes_written": 0}
    if not todo:
        return summary

    new_version = manifest.version + 1
    from etl_ray.util import map_descriptors

    quarantine = read_quarantine(lake_dir, columns=["doc_id"])
    held = sorted(pc.unique(quarantine["doc_id"]).drop_null().to_pylist()) \
        if len(quarantine) else None
    # CompactGroup is looked up on the module at call time so an
    # instrumented subclass can stand in for it
    stats = map_descriptors(
        CompactGroup(lake_dir, manifest.schema_hex, new_version, held, force),
        todo)

    manifest.version = new_version
    for row in stats.to_pylist():
        p = manifest.partition(row["part"])
        if row["kind"] == "minor":
            p.files = [p.files[0], row["file"]]
        else:
            p.files = [row["file"]]
            p.base_gen = new_version
        summary[row["kind"]] += 1
        summary["rows"] += row["rows"]
        summary["bytes_written"] += row["bytes"]
    summary["compacted_partitions"] = len(stats)
    manifest.commit({"commit_id": f"compact-g{new_version}", **summary})
    return summary
