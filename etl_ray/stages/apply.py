"""Apply stage: per-shard delta writer.

Called on one storage-exchange bucket per Ray task (stages/exchange.py
ApplyBucket). Each call receives every event routed to its shards
(shard = partition × salt) for the current commit, as zero-copy views of
the bucket's Arrow IPC fragment batches, counts each shard's events, and:

  1. writes the quarantine rows (shard −1), never collapsed and in
     sequence_number order, to ``_quarantine/<commit>.parquet`` keeping
     the ``__reason`` column (poison events preserved, never applied),
  2. collapses the other rows to the last event per (shard, doc_id) with
     the shared LWW kernel (``merge.lww_winner_indices``; LWW *within* the
     commit — a delta file is already deduped),
  3. writes each shard's winners, sorted by doc_id, to a DETERMINISTIC path
     ``part=<k>/delta-<commit>-p<k>-s<salt>.parquet`` (idempotent overwrite
     on replay — the reference's deterministic output path,
     storage/rowwriter.go:180-187),
  4. returns one stats row per file written (lineage + per-partition
     rows/sec).

Both kinds of file are written by ``lake.write_file`` (tmp + rename, in the
lake file format).

Apply never reads the base — pure LSM delta write; merge cost is deferred to
read/compaction. This keeps the hot path O(events) regardless of lake size.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.lake import write_file
from etl_ray.stages.merge import lww_winner_indices

STATS_SCHEMA = pa.schema(
    [
        pa.field("shard", pa.int64()),
        pa.field("part", pa.int64()),
        pa.field("rows_in", pa.int64()),
        pa.field("rows_out", pa.int64()),
        pa.field("deletes", pa.int64()),
        pa.field("max_seq", pa.int64()),
        pa.field("file", pa.string()),
        pa.field("wall_sec", pa.float64()),
    ]
)


class ApplyShards:
    """Callable class; construction (path roots, config) happens once per
    commit on the driver (reference: per-process init state, SURVEY.md
    §2.6).

    Input comes from one storage-exchange bucket (a hash exchange on
    ``__shard``): every shard's events land wholly in exactly one bucket,
    but one bucket may carry several shards. The winners are sorted by
    (shard, doc_id) and split at shard boundaries — cheaper than a global
    sort-based groupby (no range sampling, single exchange pass)."""

    def __init__(self, lake_dir: str, commit_id: str, config: EngineConfig):
        self.lake_dir = lake_dir
        self.commit_id = commit_id
        self.config = config

    def __call__(self, block: pa.Table) -> pa.Table:
        """Write ``block``'s quarantine file and per-shard deltas; each
        stats row's ``rows_in`` counts every event of its shard (the
        lineage and failure-ratio denominator), ``rows_out`` the rows
        written."""
        if len(block) == 0:
            return STATS_SCHEMA.empty_table()
        outs = []
        vc = pc.value_counts(block["__shard"])
        rows_in = dict(zip(vc.field("values").to_pylist(),
                           vc.field("counts").to_pylist()))
        shards = block["__shard"].to_numpy()
        is_q = shards == QUARANTINE_SHARD
        if is_q.any():
            outs.append(self._write_quarantine(block.filter(pa.array(is_q))))
            block, shards = block.filter(pa.array(~is_q)), shards[~is_q]
        if len(block):
            # winners of every shard in one key-only sort and ONE take of
            # the payload, shard-major and doc-ascending, so each shard's
            # delta is a zero-copy slice (stage 2 is DRAM-bound: payload
            # copies are its wall-clock, BASELINE.md)
            w = lww_winner_indices(block, ["__shard", "doc_id"])
            winners = block.drop_columns(
                [c for c in ("__reason", "__shard")
                 if c in block.column_names]).take(pa.array(w))
            shards = shards[w]
            bounds = np.flatnonzero(np.diff(shards)) + 1
            for s, e in zip(np.concatenate([[0], bounds]),
                            np.concatenate([bounds, [len(shards)]])):
                shard = int(shards[s])
                outs.append(self._write_delta(
                    shard, rows_in[shard], winners.slice(int(s), int(e - s))))
        return pa.concat_tables(outs)

    def _write_quarantine(self, quarantine: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        rel = os.path.join("_quarantine", f"{self.commit_id}.parquet")
        seq = quarantine["sequence_number"].to_numpy()
        out = quarantine.drop_columns(["__shard"]).take(
            pa.array(np.argsort(seq, kind="stable")))
        write_file(out, os.path.join(self.lake_dir, rel))
        return pa.table(
            {
                "shard": [QUARANTINE_SHARD], "part": [-1],
                "rows_in": [len(out)], "rows_out": [len(out)],
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
        write_file(delta, os.path.join(self.lake_dir, rel))
        return pa.table(
            {
                "shard": [shard], "part": [part],
                "rows_in": [rows_in], "rows_out": [len(delta)],
                "deletes": [deletes], "max_seq": [max_seq], "file": [rel],
                "wall_sec": [time.monotonic() - t0],
            },
            schema=STATS_SCHEMA,
        )
