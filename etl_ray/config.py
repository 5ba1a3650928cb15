"""Engine configuration and payload specs.

The engine core is generic over the payload columns carried by the changelog;
the required "control" columns are ``op`` (insert|update|delete), ``doc_id``
(string or int key) and ``sequence_number`` (int64, globally unique, monotone
in commit order). The flagship instance is the pre-tokenized training-sequence
table ``(doc_id, tokens: list<int32>, n_tok: int32, source: string)``
(BASELINE.json input_hint).

Config-as-data mirrors the reference's registries (buffer sizes, skip counts,
datatype tables — /root/reference/etl/globals.go:270-330).

Stage 2 of a commit holds one exchange bucket per task, so its memory
bound is ``EngineConfig.max_bytes_per_commit`` (a bucket is about that cap
over the bucket count). The compaction bound that no deployment sets is a
module constant, not an ``EngineConfig`` field: rows per compaction range
(``pipelines.compaction.ROWS_PER_RANGE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pyarrow as pa

# Reserved shard id for quarantined (invalid) events. Real partitions are
# shard = part * max_salt + salt, all >= 0.
QUARANTINE_SHARD = -1

CONTROL_COLUMNS = ("op", "doc_id", "sequence_number")
VALID_OPS = ("insert", "update", "delete")


def hashed_part(doc_ids: pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic vectorized partition assignment hash(doc_id) % P.

    Uses ``pandas.util.hash_array`` (SipHash-1-3 with a fixed key): stable
    across processes and runs — required by the resume / exactly-once
    protocol (a replayed commit must route every event to the partition it
    chose before the crash) — and vectorized (no Python loop per row).
    Null doc_ids get partition 0 (they are quarantined upstream).
    """
    import pandas as pd

    vals = doc_ids.to_numpy(zero_copy_only=False)
    if vals.dtype == object:
        mask = pd.isna(vals)
        if mask.any():
            vals = vals.copy()
            vals[mask] = ""
        # hash the object array directly: identical digest to the U-dtype
        # path (pandas converts fixed-width unicode to object internally)
        # without paying the UTF-32 astype copy (~2x on doc-id batches)
        h = pd.util.hash_array(vals) % num_partitions
        out = h.astype(np.int64)
        out[mask] = 0
        return out
    return (pd.util.hash_array(vals) % num_partitions).astype(np.int64)


def modulo_part(doc_ids: pa.Array, num_partitions: int) -> np.ndarray:
    """Partition fn for integer doc_ids, reproducible in ANSI SQL
    (``doc_id % P``) — used by the driver-verified oracle queries.

    Null / empty / non-numeric doc_ids route to partition 0 — they are
    quarantined downstream (same contract as ``hashed_part``); a corrupt
    event must never kill the commit."""
    import pandas as pd

    vals = pd.to_numeric(
        pd.Series(doc_ids.to_numpy(zero_copy_only=False)), errors="coerce"
    ).fillna(0).to_numpy(dtype=np.int64)
    return np.abs(vals) % num_partitions


@dataclass
class MaskRule:
    """Declarative correction: null out a column's value where it matches a
    bad set — the Geo.Region-mask pattern (reference
    parser/annotation2.go:60-120 masks Region unless valid for the country).
    Vectorized (one is_in + if_else per batch)."""

    column: str
    bad_values: tuple

    def apply(self, table: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self.column not in table.column_names:
            return table
        col = table[self.column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        bad = pc.is_in(col, value_set=pa.array(list(self.bad_values),
                                               type=col.type))
        fixed = pc.if_else(bad, pa.nulls(len(col), col.type), col)
        i = table.column_names.index(self.column)
        return table.set_column(i, self.column, fixed)


@dataclass
class ShiftRule:
    """Declarative correction: add a constant where a predicate column
    matches — the DISCOv1→v2 timestamp-shift pattern (reference
    parser/switch.go:103-117 shifts sample timestamps by the collection
    interval)."""

    column: str
    delta: float
    when_column: Optional[str] = None
    when_equals: Optional[object] = None

    def apply(self, table: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if self.column not in table.column_names:
            return table
        col = table[self.column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if self.when_column is None:
            mask = pa.array(np.ones(len(col), dtype=bool))
        else:
            w = table[self.when_column]
            mask = pc.equal(w, self.when_equals)
            mask = mask.combine_chunks() if isinstance(
                mask, pa.ChunkedArray) else mask
            mask = mask.fill_null(False)
        if pa.types.is_integer(col.type) and float(int(self.delta)) != float(
                self.delta):
            # a fractional delta on an int column would silently truncate
            # to a no-op correction — that's a config error, not data
            raise ValueError(
                f"ShiftRule delta {self.delta!r} is not representable in "
                f"integer column {self.column!r} ({col.type})")
        shifted = pc.add(col, pa.scalar(self.delta, col.type))
        fixed = pc.if_else(mask, shifted, col)
        i = table.column_names.index(self.column)
        return table.set_column(i, self.column, fixed)


@dataclass
class PayloadSpec:
    """Describes the payload columns and their validity rules.

    ``validate(table, upsert_mask) -> list[(mask, reason)]`` returns boolean
    row masks with a quarantine reason each — fully vectorized, no per-row
    Python. Payload validity is only enforced for insert/update ops; deletes
    carry null payloads by design (FIXTURES.md F2). Masks are applied in
    order; later masks win on overlap.
    """

    name: str = "generic"
    # Arrow schema of payload columns (excludes control columns).
    payload_schema: Optional[pa.Schema] = None
    # fn(table, upsert_mask) -> list[tuple[np.ndarray[bool], str]]
    validator: Optional[Callable] = None

    def validate(self, table: pa.Table, upsert_mask: np.ndarray) -> list:
        if self.validator is None:
            return []
        return self.validator(table, upsert_mask)


def _tokens_validator(vocab_size: int, max_tokens: int):
    import pyarrow.compute as pc

    def validate(table: pa.Table, upsert_mask: np.ndarray) -> list:
        n = len(table)
        if "tokens" not in table.column_names:
            return [(upsert_mask.copy(), "missing tokens column")]
        tokens = table["tokens"].combine_chunks() if isinstance(
            table["tokens"], pa.ChunkedArray) else table["tokens"]
        null_tok = pc.is_null(tokens).to_numpy(zero_copy_only=False)
        lengths = pc.list_value_length(tokens).fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if "n_tok" in table.column_names:
            n_tok = pc.cast(table["n_tok"], pa.int64()).combine_chunks()
            null_n_tok = pc.is_null(n_tok).to_numpy(zero_copy_only=False)
            n_tok_np = n_tok.fill_null(0).to_numpy(zero_copy_only=False)
            # null n_tok = "no length claim" (accepted; matches the oracle
            # and lets pre-evolution segments pass after conform fills nulls)
            bad_len = (n_tok_np != lengths) & ~null_n_tok
        else:
            bad_len = np.zeros(n, dtype=bool)
        oversize = lengths > max_tokens
        # per-row token value range check. Fast path: one SIMD min_max
        # pass over the flat values — when the whole batch is in range
        # (the overwhelmingly common case) no per-value bool masks are
        # ever materialized (measured 5.7 ms → 1.2 ms per 32k batch).
        flat = tokens.flatten()  # drops nulls' slots
        bad_value_rows = np.zeros(n, dtype=bool)
        mm = pc.min_max(flat)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is not None and (lo < 0 or hi >= vocab_size):
            vals = flat.to_numpy(zero_copy_only=False)
            bad_vals = (vals < 0) | (vals >= vocab_size)
            valid_lengths = lengths.copy()
            valid_lengths[null_tok] = 0
            row_of_val = np.repeat(np.arange(n), valid_lengths)
            np.logical_or.at(bad_value_rows, row_of_val[bad_vals], True)
        ok_tok = upsert_mask & ~null_tok
        return [
            (ok_tok & bad_value_rows, "token out of vocab"),
            (ok_tok & oversize, "tokens oversize"),
            (ok_tok & bad_len, "n_tok != len(tokens)"),
            (upsert_mask & null_tok, "null tokens for upsert"),
        ]

    return validate


def TokensPayload(vocab_size: int = 50257, max_tokens: int = 1 << 20) -> PayloadSpec:
    """The flagship payload: pre-tokenized training sequences.

    The oversize guard mirrors the reference's max-file / max-row caps
    (/root/reference/task/task.go:30-34, parser/scamper1.go:22-25).
    """
    return PayloadSpec(
        name="tokens",
        payload_schema=pa.schema(
            [
                pa.field("tokens", pa.list_(pa.int32())),
                pa.field("n_tok", pa.int32()),
                pa.field("source", pa.string()),
            ]
        ),
        validator=_tokens_validator(vocab_size, max_tokens),
    )


@dataclass
class EngineConfig:
    """Tuning knobs. Sized for a multi-node cluster; tests shrink them.

    num_partitions: choose so one partition's live data fits a worker's heap
      during merge-on-read (~1-2 GB); compaction merges a partition in
      bounded doc_id ranges. At 100 TB that means P ~ 64k; the
      sandbox bench uses 32-64. Partition count is fixed at lake-creation
      time (manifest records it); changing it requires a full rewrite.
    max_salt: events within one hot partition can be split into up to
      ``max_salt`` sub-groups per commit (salt = sequence_number % S). LWW
      merge-on-read resolves across salted delta files by sequence_number,
      so salting never changes results — it only splits a straggler group.
    salt_threshold: events-per-partition count in a commit above which the
      partition is salted.
    batch_size: rows per validate batch. Token rows are ~0.5-2 KB; 8192 rows
      ≈ 8-16 MB per batch.
    compact_min_deltas: compaction takes the partitions with at least this
      many delta files (every file but the base; a folded delta run counts
      as one). Each then folds its runs into one run, or rewrites its base
      once the runs' data bytes reach the base's (``compaction.RATIO``);
      at 1, a lone delta with no base is promoted to base as it is.
    """

    num_partitions: int = 32
    max_salt: int = 8
    salt_threshold: int = 250_000
    batch_size: int = 8192
    compact_min_deltas: int = 4
    # cap a commit by INPUT BYTES (file sizes driver-side; always >=1
    # segment): a catch-up replay of a huge backlog becomes several bounded
    # commits instead of one unbounded one. None = uncapped. Sized so one
    # bucket (~ cap / n_buckets, x skew) fits a worker heap.
    max_bytes_per_commit: Optional[int] = 8 << 30
    skip_count: int = 0  # sampling relief valve (reference etl/globals.go:326-330)
    # abort the commit (manifest unflipped, CommitAborted raised) when
    # quarantined/events_in exceeds this ratio — the reference's TaskError
    # gate (etl/etl.go:116-117). None = never abort (count + quarantine only).
    max_failure_ratio: Optional[float] = None
    # where exchange fragments (uncompressed Arrow IPC, stages/exchange.py)
    # live. None → <lake>/_exchange, beside the lake (which must already be
    # on a shared fs on a multi-node cluster: apply and the manifest commit
    # write it through POSIX paths). A single node can point this at
    # /dev/shm — fragments are transient (deleted after commit), so
    # RAM-backed tmpfs is the in-memory-shuffle analog and skips a disk
    # round-trip.
    exchange_root: Optional[str] = None
    payload: PayloadSpec = field(default_factory=TokensPayload)
    # partition fn: fn(doc_id_array, P) -> np.ndarray[int64]
    part_fn: Callable = hashed_part
    # declarative data-correction rules (MaskRule / ShiftRule / any object
    # with .apply(table)->table), applied in the validate stage BEFORE
    # validity checks — the reference's field-mask / ts-shift corrections
    # as config-as-data (annotation2.go:60-120, switch.go:103-117)
    corrections: tuple = ()

    def shard_of(self, part: np.ndarray, salt: np.ndarray) -> np.ndarray:
        return part * self.max_salt + salt
