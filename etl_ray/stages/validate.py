"""Validate / decode / route stage — stateless zero-copy Arrow batch transform.

The analog of the reference's per-file IsParsable + ParseAndInsert row
validation (/root/reference/etl/etl.go:119-147, parser/ss.go:266-279,
parser/tcpinfo.go:164-175) and its oversize guards (task/task.go:110-116).
Invalid events are never dropped silently: they are routed to a QUARANTINE
side-output (reserved shard) with a reason, and counted in lineage — the
poison-event protection that keeps at-least-once retries from looping.

Output adds two columns:
  __reason  string   null for valid rows
  __shard   int64    part*max_salt+salt for valid rows, QUARANTINE_SHARD else
and conforms the batch to the promoted target schema (schema evolution).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.config import QUARANTINE_SHARD, VALID_OPS, EngineConfig
from etl_ray.schema import conform


class Validator:
    """Callable run on each batch in the exchange's stage-1 tasks
    (FragmentWriter) — constructed once, on the driver; holds the compiled
    target schema and config (reference: per-process
    dictionaries loaded in init, /root/reference/web100/web100.go:92-105)."""

    def __init__(self, config: EngineConfig, target_schema: pa.Schema,
                 salted_parts: frozenset = frozenset(), min_seq: int = 0):
        self.config = config
        self.target_schema = target_schema
        self.salted_parts = salted_parts
        # lowest valid sequence_number: 0 for changelog events, -1 for
        # bootstrap base rows (so that any event wins over them)
        self.min_seq = min_seq
        self._valid_ops = pa.array(list(VALID_OPS))

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.config
        batch = conform(batch, self.target_schema)
        # declarative corrections run BEFORE validity checks, mirroring the
        # reference's parse-time field masks / shifts (SURVEY.md §2.3)
        for rule in cfg.corrections:
            batch = rule.apply(batch)
        n = len(batch)
        reasons = np.full(n, None, dtype=object)
        quarantined = np.zeros(n, dtype=bool)

        op = batch["op"]
        bad_op = pc.invert(pc.is_in(op, value_set=self._valid_ops)).to_numpy(
            zero_copy_only=False)
        doc_id = batch["doc_id"]
        bad_doc = pc.or_kleene(
            pc.is_null(doc_id),
            pc.equal(pc.cast(doc_id, pa.string()), ""),
        ).fill_null(True).to_numpy(zero_copy_only=False)
        seq = batch["sequence_number"]
        bad_seq = pc.or_kleene(
            pc.is_null(seq), pc.less(seq, self.min_seq)).fill_null(
            True).to_numpy(zero_copy_only=False)

        is_delete = pc.equal(op, "delete").fill_null(False).to_numpy(
            zero_copy_only=False)
        upsert_mask = ~(bad_op | is_delete)

        # masks applied lowest-precedence first; control-column defects win
        checks = list(cfg.payload.validate(batch, upsert_mask))
        checks += [
            (bad_seq, "bad sequence_number"),
            (bad_doc, "bad doc_id"),
            (bad_op, "unknown op"),
        ]
        for mask, reason in checks:
            if mask.any():
                reasons[mask] = reason
                quarantined |= mask

        part = cfg.part_fn(doc_id.combine_chunks() if isinstance(
            doc_id, pa.ChunkedArray) else doc_id, cfg.num_partitions)
        if self.salted_parts:
            # salt = sequence_number % max_salt, only for flagged-hot
            # partitions; LWW merge-on-read resolves across salt groups.
            seq_np = pc.cast(seq, pa.int64()).fill_null(0).to_numpy(
                zero_copy_only=False)
            salt = np.where(
                np.isin(part, list(self.salted_parts)),
                seq_np % cfg.max_salt,
                0,
            )
        else:
            salt = np.zeros(n, dtype=np.int64)
        shard = cfg.shard_of(part, salt)
        shard[quarantined] = QUARANTINE_SHARD

        return batch.append_column(
            "__reason", pa.array(reasons, type=pa.string())
        ).append_column("__shard", pa.array(shard, type=pa.int64()))


def split_quarantine(table: pa.Table):
    """(valid, quarantine) split of a validated table (helper for tests)."""
    mask = pc.is_null(table["__reason"])
    return table.filter(mask), table.filter(pc.invert(mask))
