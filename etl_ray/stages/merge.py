"""Vectorized last-writer-wins merge kernels (pure Arrow, no Python rows).

The LWW contract (SURVEY.md §2.9): among all events/rows for a doc_id, the
one with the max sequence_number wins; a winning ``delete`` removes the row.
The reference's analog is downstream UUID dedup plus idempotent re-parse
(/root/reference/parser/parser.go:157-176, storage/rowwriter.go:180-187).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def lww_winner_indices(table: pa.Table, key_cols: list) -> np.ndarray:
    """Row indices of the per-key LWW winners, ordered by key ascending.

    The sort runs over the KEY COLUMNS ONLY (``select`` is zero-copy); the
    caller then does a single ``take`` of the winners. The naive shape —
    ``sort_by`` the whole table, then ``filter`` — moves every payload byte
    twice (full-table take + survivor copy, ~2.5× table bytes for a ~50%
    survivor rate); this shape moves ~0.5× (winners once). The payload here
    is multi-KB token arrays per row, so this is THE memory-bandwidth lever
    of the apply/merge stages (BASELINE.md: stage 2 is DRAM-bound). The
    key columns are combined into one chunk first: a chunked sort merges
    per-chunk runs (25k rows in 13 chunks, 1 CPU: 9.6 → 7.1 ms)."""
    keys = table.select(list(key_cols) + ["sequence_number"]).combine_chunks()
    order = pc.sort_indices(
        keys, sort_keys=[(k, "ascending") for k in keys.column_names])
    n = len(order)
    # row i (in sort order) ends a run iff ANY key changes between i, i+1
    last = np.zeros(n, dtype=bool)
    last[n - 1] = True
    for k in key_cols:
        col = pc.take(keys[k], order).combine_chunks()
        neq = pc.not_equal(col.slice(0, n - 1), col.slice(1, n - 1))
        last[: n - 1] |= neq.fill_null(True).to_numpy(zero_copy_only=False)
    return order.to_numpy(zero_copy_only=False)[last]


def lww_last_per_keys(table: pa.Table, key_cols: list) -> pa.Table:
    """Keep, per composite key, the row with the largest sequence_number,
    in key order (per doc_id: the on-disk order of lake files).

    ``merge_runs`` calls it on ``["doc_id"]``. Max-by-seq is associative,
    so collapsing partial runs then collapsing the concatenation of the
    partials equals one global collapse."""
    if len(table) == 0:
        return table
    winners = lww_winner_indices(table, key_cols)
    return table.take(pa.array(winners))


def drop_tombstones(table: pa.Table, *, op_col: str = "op",
                    keep: pa.Array = None) -> pa.Table:
    """Drop the rows whose ``op`` is delete, except those whose doc_id is
    in ``keep``."""
    if op_col not in table.column_names or len(table) == 0:
        return table
    dead = pc.equal(table[op_col], "delete").fill_null(False)
    if keep is not None:
        dead = pc.and_(dead, pc.invert(pc.is_in(table["doc_id"],
                                                value_set=keep)))
    return table.filter(pc.invert(dead))


def merge_runs(tables: list, *, drop_deletes: bool,
               target_schema: pa.Schema = None,
               keep_deletes: pa.Array = None) -> pa.Table:
    """Merge base+delta runs for one partition: concat → LWW → (optionally)
    drop tombstones, keeping those of the doc_ids in ``keep_deletes``.
    Inputs may be under older schema versions; they are conformed to
    ``target_schema`` first (schema evolution on read)."""
    from etl_ray.schema import conform

    if target_schema is not None:
        tables = [conform(t, target_schema) for t in tables]
    merged = pa.concat_tables(tables, promote_options="default")
    merged = lww_last_per_keys(merged, ["doc_id"])
    if drop_deletes:
        merged = drop_tombstones(merged, keep=keep_deletes)
    return merged
