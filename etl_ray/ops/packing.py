"""Sequence packing: per-document token arrays → fixed-length training
sequences (the canonical LLM-pretraining data layout).

Documents are concatenated in doc_id order WITHIN a doc_id-range bucket and
chunked into ``seq_len``-token sequences (the last chunk per bucket may be
short); an optional EOS separator is appended after each document. Packing
per range-bucket instead of globally is the standard shard-local layout real
pipelines use: it needs NO global prefix sum, each bucket packs
independently (one coarse groupby, vectorized numpy inside), and the result
is deterministic — which also makes it SQL-reproducible for the driver's
oracle.

Scale: the ONE shuffle is the groupby on the bucket key (coarse — thousands
of groups, not millions); inside a group everything is one np.concatenate +
reshape. At 100 TB choose bucket_size so one bucket's tokens fit a worker
(~1-2 GB), exactly like the CDC lake's partition sizing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from etl_ray.functions.text import BPE_RE

SEQ_PER_BUCKET = 1 << 20  # seq_id = bucket * SEQ_PER_BUCKET + chunk index


class TokenizeDocs:
    """Fixture tokenizer: BPE-ish piece lengths as int32 token ids
    (deterministic, SQL-reproducible via list_transform(length)); a real
    deployment swaps in an actual tokenizer here — the stage shape
    (stateful map_batches, list<int32> output) is the real thing."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas().fillna("")
        pieces = texts.str.findall(BPE_RE)
        lengths = pieces.str.len().to_numpy(dtype=np.int64)
        flat = np.fromiter(
            (len(p) for doc in pieces for p in doc),
            dtype=np.int32, count=int(lengths.sum()),
        )
        offsets = np.zeros(len(texts) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        toks = pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat))
        return pa.table({self.id_col: batch[self.id_col], "tokens": toks})


def _pack_group(g: pd.DataFrame, *, seq_len: int, id_col: str,
                tokens_col: str, eos_token: Optional[int]) -> pd.DataFrame:
    g = g.sort_values(id_col)
    bucket = int(g["bucket"].iloc[0])
    arrays = [np.asarray(t, dtype=np.int32) for t in g[tokens_col]]
    if eos_token is not None:
        eos = np.array([eos_token], dtype=np.int32)
        arrays = [x for t in arrays for x in (t, eos)]
    stream = np.concatenate(arrays) if arrays else np.zeros(0, np.int32)
    n = len(stream)
    if n == 0:
        return pd.DataFrame({"seq_id": pd.Series([], dtype="int64"),
                             "n_tok": pd.Series([], dtype="int64"),
                             "tokens_csv": pd.Series([], dtype=object)})
    n_chunks = (n + seq_len - 1) // seq_len
    chunks = [stream[i * seq_len:(i + 1) * seq_len] for i in range(n_chunks)]
    return pd.DataFrame({
        "seq_id": bucket * SEQ_PER_BUCKET + np.arange(n_chunks, dtype=np.int64),
        "n_tok": np.array([len(c) for c in chunks], dtype=np.int64),
        "tokens_csv": [",".join(map(str, c.tolist())) for c in chunks],
    })


def pack_sequences(ds, *, seq_len: int = 2048, bucket_size: int = 1024,
                   id_col: str = "doc_id", tokens_col: str = "tokens",
                   eos_token: Optional[int] = None):
    """(doc_id, tokens) → (seq_id, n_tok, tokens_csv) packed sequences.
    ``ds`` must carry integer doc ids; bucket = doc_id // bucket_size."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("bucket", pa.array(ids // bucket_size))

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        return _pack_group(g, seq_len=seq_len, id_col=id_col,
                           tokens_col=tokens_col, eos_token=eos_token)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pack, batch_format="pandas")
    )


def pack_documents(ds, *, seq_len: int = 2048, bucket_size: int = 1024,
                   text_col: str = "text", id_col: str = "doc_id",
                   eos_token: Optional[int] = None):
    """documents(text) → tokenize → pack: the end-to-end pretraining-data
    layout pipeline."""
    tok = ds.map_batches(TokenizeDocs(text_col=text_col, id_col=id_col),
                         batch_format="pyarrow")
    return pack_sequences(tok, seq_len=seq_len, bucket_size=bucket_size,
                          id_col=id_col, eos_token=eos_token)


def chunk_sequences(ds, *, max_len: int = 128, overlap: int = 32,
                    id_col: str = "doc_id", tokens_col: str = "tokens"):
    """The dual of packing: split each document's token array into
    sliding windows of ``max_len`` tokens advancing by ``max_len -
    overlap`` (context-overlap chunking for long-document pretraining).

    Chunk k of a doc covers tokens [k*stride, k*stride + max_len); a doc
    emits ceil((n - max_len)/stride) + 1 chunks (one if n <= max_len; the
    last may be short). NO shuffle at all — the 1->N expansion is a
    batch-local vectorized gather (run-construction indices, no per-doc
    Python loop), so this streams at read speed.

    Output: (doc_id, chunk_idx, n_tok, tokens list<int32>).
    """
    if not 0 <= overlap < max_len:
        raise ValueError("need 0 <= overlap < max_len")
    stride = max_len - overlap

    def per_batch(batch: pa.Table) -> pa.Table:
        col = batch[tokens_col].combine_chunks()
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False)
        n = np.diff(offsets)
        n_chunks = np.where(
            n <= max_len, 1, (n - max_len + stride - 1) // stride + 1
        ).astype(np.int64)
        total_chunks = int(n_chunks.sum())
        doc_idx = np.repeat(np.arange(len(n)), n_chunks)
        run_off = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        k = np.arange(total_chunks, dtype=np.int64) - run_off
        starts = k * stride
        lens = np.minimum(starts + max_len, n[doc_idx]) - starts
        # gather the (overlapping) windows into a fresh flat buffer
        total_tok = int(lens.sum())
        tok_run_off = np.repeat(np.cumsum(lens) - lens, lens)
        gather = (np.repeat(offsets[:-1][doc_idx] + starts, lens)
                  + (np.arange(total_tok, dtype=np.int64) - tok_run_off))
        new_flat = flat[gather] if total_tok else flat[:0]
        new_off = np.zeros(total_chunks + 1, dtype=np.int64)
        np.cumsum(lens, out=new_off[1:])
        toks = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()),
            pa.array(new_flat, pa.int32()),
        )
        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_idx)),
            "chunk_idx": pa.array(k),
            "n_tok": pa.array(lens),
            "tokens": toks,
        })

    return ds.map_batches(per_batch, batch_format="pyarrow")


def length_bucket_batches(ds, *, tokens_col: str = "tokens",
                          id_col: str = "doc_id",
                          boundaries=(32, 64, 128, 256),
                          batch_size: int = 16):
    """Length-bucketed batching — the pad-efficiency layout between
    tokenization and the trainer: sequences are grouped into length
    buckets (``bucket`` = first boundary ≥ n_tok, last bucket unbounded)
    and assigned deterministic ``batch_idx`` slots of ``batch_size``
    members in id order; ``pad_to`` is the batch's max length, ``waste``
    the pad tokens this doc costs. Batching near-equal lengths bounds
    waste by the bucket width instead of the corpus max.

    Scale shape: n_tok and bucket are batch-local; the batch assignment
    needs a global rank WITHIN each bucket, so buckets shuffle once and
    rank in one vectorized pass per bucket (len(boundaries)+1 groups —
    at extreme corpus sizes sub-partition by id range per bucket, same
    note as sessionize). Returns (id, n_tok, bucket, batch_idx, pad_to,
    waste). A row whose token list is NULL has no sequence to batch and is
    dropped (an empty list is kept, with n_tok 0)."""
    bounds = np.asarray(sorted(boundaries), dtype=np.int64)

    def per_batch(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lens = pc.list_value_length(t[tokens_col])
        if lens.null_count:
            t = t.filter(pc.is_valid(lens))
            lens = pc.list_value_length(t[tokens_col])
        n_tok = lens.to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = np.searchsorted(bounds, n_tok, side="left")
        return pa.table({
            id_col: t[id_col],
            "n_tok": pa.array(n_tok),
            "bucket": pa.array(bucket.astype(np.int64)),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="stable").reset_index(drop=True)
        g["batch_idx"] = np.arange(len(g), dtype=np.int64) // batch_size
        g["pad_to"] = g.groupby("batch_idx")["n_tok"].transform("max")
        g["waste"] = g["pad_to"] - g["n_tok"]
        return g

    return (ds.map_batches(per_batch, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(per_bucket, batch_format="pandas"))
