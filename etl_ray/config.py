"""Engine configuration and payload specs.

The engine core is generic over the payload columns carried by the changelog;
the required "control" columns are ``op`` (insert|update|delete), ``doc_id``
(string or int key) and ``sequence_number`` (int64, globally unique, monotone
in commit order). The flagship instance is the pre-tokenized training-sequence
table ``(doc_id, tokens: list<int32>, n_tok: int32, source: string)``
(BASELINE.json input_hint).

Config-as-data mirrors the reference's registries (buffer sizes, skip counts,
datatype tables — /root/reference/etl/globals.go:270-330).
"""

from __future__ import annotations

import zlib
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


def crc32_part(doc_ids: pa.Array, num_partitions: int) -> np.ndarray:
    """crc32-based partition fn: slower (Python loop) but stable across
    library versions forever; use when a lake must survive pandas upgrades."""
    out = np.empty(len(doc_ids), dtype=np.int64)
    for i, v in enumerate(doc_ids.to_pylist()):
        out[i] = 0 if v is None else zlib.crc32(
            str(v).encode("utf-8")) % num_partitions
    return out


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
      during merge/compaction (~1-2 GB). At 100 TB that means P ~ 64k; the
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
    compact_min_deltas: compaction triggers for partitions with at least
      this many delta files.
    """

    num_partitions: int = 32
    max_salt: int = 8
    salt_threshold: int = 250_000
    batch_size: int = 8192
    # cap on commit-stage tasks in flight; None → twice the cluster CPUs
    apply_concurrency: Optional[int] = None
    compact_min_deltas: int = 4
    # above this input size, compaction switches to the bounded-memory
    # range-sliced streaming sort-merge (stages/streaming_merge.py)
    compact_streaming_threshold_bytes: int = 512 << 20
    compact_rows_per_range: int = 1 << 20
    max_segments_per_commit: int = 1_000_000
    # cap a commit by INPUT BYTES (file sizes driver-side; always >=1
    # segment): a catch-up replay of a huge backlog becomes several bounded
    # commits instead of one unbounded one. None = uncapped. Sized so one
    # bucket (~ cap / n_buckets, x skew) fits a worker heap.
    max_bytes_per_commit: Optional[int] = 8 << 30
    # apply-side pre-collapse threshold: a bucket's accumulated exchange
    # chunks are LWW-collapsed per (shard, doc) past this many rows, so
    # peak memory ~ collapsed state + one chunk even for backlog buckets
    apply_chunk_rows: int = 1 << 21
    # fragment parquet codec ("lz4" fast / "zstd" smaller — bytes moved
    # through the exchange are the e2e bottleneck on shared storage)
    exchange_compression: str = "lz4"
    # IPC-fragment buffer compression (None | "lz4" | "zstd"). The token
    # payload is ~95% of exchange bytes at ~15.6 bits of entropy per int32
    # token, so zstd reclaims ~40-50% of the bytes moved — the right trade
    # whenever the exchange medium (shared DRAM here, network/disk on a
    # real cluster) is the bottleneck rather than CPU. None = raw buffers
    # (zero-copy mmap reads on the consumer side).
    exchange_ipc_compression: Optional[str] = None
    # fragment container: "parquet" (half the bytes — right for disk /
    # shared-fs exchange) or "ipc" (Arrow IPC file, ~10x cheaper encode and
    # near-zero-cost decode at ~2x bytes — right for a RAM-backed
    # exchange_root like /dev/shm, where bytes are memcpys). Measured on
    # 106 MB of token rows: parquet-lz4 49.5 MB, 1.3 s write + 1.4 s read;
    # IPC 103 MB, 0.13 s write + ~0 s read.
    exchange_format: str = "parquet"
    # Split-payload exchange (IPC only): stage 1 writes the heavy payload
    # columns ONCE, in arrival order, to a sibling payload file and
    # bucket-sorts only the tiny key columns (op/doc_id/seq/__shard + a
    # row pointer). Stage 2 selects LWW winners on the keys and gathers
    # winners' payload rows with one fused take over zero-copy mmaps — the
    # multi-KB token arrays are never reordered in stage 1 and only the
    # winners are ever copied in stage 2. Cuts exchange DRAM traffic by
    # ~one full payload copy per commit (the stage-1 bucket take).
    # None = auto (on for exchange_format="ipc", off for parquet — the
    # winner gather needs mmap random access, i.e. shared-fs/tmpfs roots).
    exchange_split_payload: Optional[bool] = None
    # stage-2 bucket count = cpus × this (capped by num_partitions·max_salt).
    # 2 = two waves of bucket tasks per round of CPUs; raise for better
    # wave-packing when buckets are skewed, at the cost of more fragment
    # files per stage-1 task (each stage-1 task writes one file per bucket)
    bucket_multiplier: int = 2
    skip_count: int = 0  # sampling relief valve (reference etl/globals.go:326-330)
    # abort the commit (manifest unflipped, CommitAborted raised) when
    # quarantined/events_in exceeds this ratio — the reference's TaskError
    # gate (etl/etl.go:116-117). None = never abort (count + quarantine only).
    max_failure_ratio: Optional[float] = None
    # "storage": disk/shared-fs hash exchange (fast, scales, default);
    # "sort": Ray Data sort-based groupby shuffle (no shared fs needed)
    exchange: str = "storage"
    # where exchange fragments live. None → <lake>/_exchange (shared fs on a
    # real cluster). Single-node benchmarking can point this at /dev/shm —
    # fragments are transient (deleted after commit), so RAM-backed tmpfs is
    # the in-memory-shuffle analog and skips a disk round-trip.
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
