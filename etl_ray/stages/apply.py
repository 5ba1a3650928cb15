"""Apply stage: per-shard delta writer.

Called on one storage-exchange bucket per Ray task (stages/exchange.py
ApplyBucket), or per group of the ``exchange="sort"`` groupby. Each call
receives every event routed to its shards (shard = partition × salt) for
the current commit and, per shard:

  1. sorts by sequence_number and collapses to the last event per doc_id
     (LWW *within* the commit — the delta file is already deduped),
  2. writes a sorted delta run to a DETERMINISTIC path
     ``part=<k>/delta-<commit>-p<k>-s<salt>.parquet`` (idempotent overwrite
     on replay — the reference's deterministic output path,
     /root/reference/storage/rowwriter.go:180-187),
  3. returns a one-row stats table (lineage + per-partition rows/sec).

The quarantine shard instead writes ``_quarantine/<commit>.parquet`` keeping
the ``__reason`` column (poison events preserved, never applied).

Apply never reads the base — pure LSM delta write; merge cost is deferred to
read/compaction. This keeps the hot path O(events) regardless of lake size.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
STATS_SCHEMA = pa.schema(
    [
        pa.field("shard", pa.int64()),
        pa.field("part", pa.int64()),
        pa.field("salt", pa.int64()),
        pa.field("rows_in", pa.int64()),
        pa.field("rows_out", pa.int64()),
        pa.field("deletes", pa.int64()),
        pa.field("max_seq", pa.int64()),
        pa.field("file", pa.string()),
        pa.field("wall_sec", pa.float64()),
    ]
)


def _gather_rows(tables, gidx) -> pa.Table:
    """Gather rows ``gidx`` (global indices over the concatenation of
    ``tables``) preserving order. Takes run per SOURCE table (single-chunk,
    sorted indices = forward scans); a single take against the chunked
    concat instead pays a large fixed cost per call on list columns
    (measured ~10x at 31k rows x 20 chunks). The order-restoring take runs
    over the winners-only gathered table, so it moves winner bytes once."""
    import numpy as np

    lens = np.array([len(t) for t in tables], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    ord2 = np.argsort(gidx, kind="stable")
    sw = gidx[ord2]
    bounds = np.searchsorted(sw, offsets[1:-1])
    pieces, s = [], 0
    for f, e in enumerate(list(bounds) + [len(sw)]):
        e = int(e)
        if e > s:
            pieces.append(tables[f].take(pa.array(sw[s:e] - offsets[f])))
        s = e
    g = pa.concat_tables(pieces).combine_chunks()
    inv = np.empty(len(ord2), np.int64)
    inv[ord2] = np.arange(len(ord2))
    return g.take(pa.array(inv))


def _atomic_write(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


class ApplyShards:
    """Callable class; construction (path roots, config) happens once per
    commit on the driver (reference: per-process init state, SURVEY.md
    §2.6).

    Input blocks come from a hash exchange on ``__shard``: every shard's
    events land wholly in exactly one block, but one block may carry
    several shards. The block is
    locally sorted by shard and split at run boundaries — cheaper than a
    global sort-based groupby (no range sampling, single exchange pass)."""

    def __init__(self, lake_dir: str, commit_id: str, config: EngineConfig):
        self.lake_dir = lake_dir
        self.commit_id = commit_id
        self.config = config

    def __call__(self, block: pa.Table, payload=None) -> pa.Table:
        """``payload``: split-payload mode (stages/exchange.py) — a LIST of
        single-chunk arrival-order payload tables; ``block`` carries only
        key columns plus ``__gpidx`` row pointers into their concatenation.
        Winners' payload rows are gathered here per source table (losers'
        multi-KB rows are never copied at all)."""
        if len(block) == 0:
            return STATS_SCHEMA.empty_table()
        import numpy as np

        # Shards split by INDEX (argsort of the int64 shard column); winner
        # selection runs over the small key columns only; then ALL shards'
        # winners are gathered from the original block in ONE take and
        # sliced per shard. The payload (multi-KB token arrays) is copied
        # once, winners only — the previous shape (sort_by shard → slice →
        # lww sort_by → filter) moved every payload byte ~2.5×, and a
        # per-shard take pays Arrow's fixed chunked-gather overhead per
        # shard (measured 5× slower than one fused take at 32 shards/block).
        # Stage 2 is DRAM-bound, so payload copies are the wall-clock
        # (BASELINE.md).
        vals = block["__shard"].combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        boundaries = np.flatnonzero(np.diff(sv)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sv)]])

        slim = block.drop_columns(
            [c for c in ("__reason", "__shard", "__gpidx")
             if c in block.column_names])
        # one small gather puts the keys in shard-major order; per-shard key
        # ranges are then zero-copy slices
        skeys = slim.select(["doc_id", "sequence_number"]).take(
            pa.array(order))

        outs = []
        plan = []          # (shard, rows_in, n_winners) in slice order
        winner_parts = []  # original-block indices, doc-ascending per shard
        for s, e in zip(starts, ends):
            s, e = int(s), int(e)
            shard = int(sv[s])
            if shard == QUARANTINE_SHARD:
                outs.append(self._quarantine_one(block, order[s:e]))
                continue
            kr = skeys.slice(s, e - s)
            o2 = pc.sort_indices(kr, sort_keys=[
                ("doc_id", "ascending"), ("sequence_number", "ascending")])
            ids = pc.take(kr["doc_id"], o2).combine_chunks()
            m = len(ids)
            # run-boundary mask: row i is last of its doc iff ids[i]!=ids[i+1]
            neq = pc.not_equal(ids.slice(0, m - 1), ids.slice(1, m - 1)) \
                .fill_null(True).to_numpy(zero_copy_only=False)
            last = np.append(neq, True)
            w = o2.to_numpy(zero_copy_only=False)[last]
            winner_parts.append(order[s:e][w])
            plan.append((shard, e - s, len(w)))
        if winner_parts:
            allw = np.concatenate(winner_parts)
            big = slim.take(pa.array(allw))
            if payload is not None:
                gp = block["__gpidx"].combine_chunks().to_numpy(
                    zero_copy_only=False)[allw]
                paywin = _gather_rows(payload, gp)
                for i, name in enumerate(paywin.column_names):
                    big = big.append_column(name, paywin.column(i))
            off = 0
            for shard, rows_in, k in plan:
                outs.append(
                    self._write_delta(shard, rows_in, big.slice(off, k)))
                off += k
        return pa.concat_tables(outs)

    def _quarantine_one(self, block: pa.Table, idx) -> pa.Table:
        import numpy as np

        t0 = time.monotonic()
        rel = os.path.join("_quarantine", f"{self.commit_id}.parquet")
        seq = block["sequence_number"].combine_chunks().to_numpy(
            zero_copy_only=False)[idx]
        out = block.drop_columns(["__shard"]).take(
            pa.array(idx[np.argsort(seq, kind="stable")]))
        _atomic_write(out, os.path.join(self.lake_dir, rel))
        return pa.table(
            {
                "shard": [QUARANTINE_SHARD], "part": [-1], "salt": [0],
                "rows_in": [len(idx)], "rows_out": [len(out)],
                "deletes": [0], "max_seq": [-1], "file": [rel],
                "wall_sec": [time.monotonic() - t0],
            },
            schema=STATS_SCHEMA,
        )

    def _write_delta(self, shard: int, rows_in: int,
                     delta: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        part = shard // self.config.max_salt
        salt = shard % self.config.max_salt
        deletes = int(
            pc.sum(pc.equal(delta["op"], "delete").fill_null(False)).as_py() or 0
        )
        max_seq = int(pc.max(delta["sequence_number"]).as_py())
        rel = os.path.join(
            f"part={part}", f"delta-{self.commit_id}-p{part}-s{salt}.parquet"
        )
        _atomic_write(delta, os.path.join(self.lake_dir, rel))
        return pa.table(
            {
                "shard": [shard], "part": [part], "salt": [salt],
                "rows_in": [rows_in], "rows_out": [len(delta)],
                "deletes": [deletes], "max_seq": [max_seq], "file": [rel],
                "wall_sec": [time.monotonic() - t0],
            },
            schema=STATS_SCHEMA,
        )


# map_groups-compatible alias: a single-shard group is just a one-run block
ApplyGroup = ApplyShards
