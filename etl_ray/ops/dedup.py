"""Deduplication operators over a documents table.

Exact dedup is the reference's downstream contract (synthetic UUIDs exist so
the dedup step can collapse re-parses — /root/reference/parser/parser.go:
157-176); near-dup variants are the large-scale-training-data extensions.

Scale notes (100 TB): every variant is shuffle-light —
  * exact: md5 content hash computed per batch (vectorized), ONE groupby on
    the hash (pre-deduped within batch first, so the shuffle moves at most
    one row per distinct hash per batch);
  * MinHash-LSH / SimHash: per-batch signature computation, explode to
    (band, band_hash, doc_id) — the groupby moves tiny signature rows, never
    documents; candidate pair dedup is an aggregate (hash-combinable), not a
    per-group Python lambda;
  * candidate VERIFICATION is a distributed hash join (shingle sets joined
    onto pairs, exact Jaccard inside map_batches) — nothing unbounded ever
    lands on the driver;
  * embedding near-dup: the comparison side is broadcast once via ray.put
    (valid while the index side fits memory; the LSH-bucketed variant in
    similarity.py is the unbounded-scale path).

Hashing is deliberately PORTABLE (md5-based word hashes + a uint64
polynomial fold): byte-stable across library versions forever — the same
property crc32_part buys the partitioner — and reproducible in DuckDB SQL,
which is how the driver's oracle verifies the LSH machinery value-for-value
(see __ray_entry__.oracle_sql). The md5 cost is paid once per UNIQUE word
per batch (Zipf makes uniques << tokens); everything downstream is numpy.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.functions.text import normalize_for_fingerprint

MERSENNE = (1 << 61) - 1

# odd fold multiplier kept BELOW 2^62 so (acc mod 2^64) * C fits a signed
# 128-bit HUGEINT — the property that lets the SQL oracle reproduce the fold
# exactly (numpy wraps uint64; DuckDB reduces mod 2^64 each step)
_SHINGLE_C = np.uint64(0x2545F4914F6CDD1D)

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 has no bitwise_count)."""
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1).astype(
        np.int64)


def md5le64(strings: np.ndarray) -> np.ndarray:
    """uint64 word hash: little-endian first 8 bytes of md5(word).

    Hashes each UNIQUE value once (np.unique + inverse); portable across
    processes/versions and reproducible in SQL (md5 hex → byte folds)."""
    if len(strings) == 0:
        return np.zeros(0, dtype=np.uint64)
    uniq, inv = np.unique(strings, return_inverse=True)
    hs = np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")
         for s in uniq),
        dtype=np.uint64, count=len(uniq),
    )
    return hs[inv]


# --------------------------------------------------------------- exact dedup
def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pandas().fillna("")
    hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column("content_hash", pa.array(hashes, pa.string()))


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per exact content hash.

    hash per batch → batch-local collapse → groupby(hash) keep min id.
    Returns a Dataset of (content_hash, doc_id-kept).
    """

    def local(batch: pa.Table) -> pa.Table:
        batch = add_content_hash(batch, text_col)
        t = batch.select([id_col, "content_hash"]).sort_by(
            [("content_hash", "ascending"), (id_col, "ascending")]
        )
        h = t["content_hash"].combine_chunks()
        n = len(h)
        if n == 0:
            return t
        neq = pc.not_equal(h.slice(0, n - 1), h.slice(1, n - 1))
        first = pa.chunked_array([pa.array([True]), neq])
        return t.filter(first)

    from ray.data.aggregate import Min

    out = (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min(id_col, alias_name=id_col))
    )
    return out


# ------------------------------------------------------------- MinHash + LSH
def _word_shingle_hashes(word_hashes: np.ndarray, doc_of_word: np.ndarray,
                         n: int) -> tuple:
    """Vectorized word n-gram shingle hashes across ALL docs of a batch.

    Shingle hash = polynomial fold of n consecutive word hashes (uint64
    wraparound); shingles that would straddle a doc boundary are masked out.
    Docs shorter than n words get one whole-doc shingle. Returns
    (flat shingle hashes, doc index per shingle).
    """
    m = len(word_hashes)
    if m == 0:
        return (np.zeros(0, np.uint64), np.zeros(0, np.int64))
    acc = word_hashes.copy()
    for k in range(1, n):
        shifted = np.empty_like(word_hashes)
        shifted[:m - k] = word_hashes[k:]
        shifted[m - k:] = 0
        acc = acc * _SHINGLE_C + shifted
    if n > 1:
        valid = np.zeros(m, dtype=bool)
        valid[: m - (n - 1)] = doc_of_word[: m - (n - 1)] == doc_of_word[n - 1:]
    else:
        valid = np.ones(m, dtype=bool)
    sh = acc[valid]
    docs = doc_of_word[valid]
    # short docs (< n words): one fold over what exists
    present = np.unique(doc_of_word)
    covered = np.unique(docs)
    missing = np.setdiff1d(present, covered, assume_unique=True)
    if len(missing):
        extra_h, extra_d = [], []
        starts = np.searchsorted(doc_of_word, missing, side="left")
        ends = np.searchsorted(doc_of_word, missing, side="right")
        for d, s, e in zip(missing, starts, ends):
            h = np.uint64(0)
            for w in word_hashes[s:e]:
                h = h * _SHINGLE_C + w
            extra_h.append(h)
            extra_d.append(d)
        sh = np.concatenate([sh, np.array(extra_h, np.uint64)])
        docs = np.concatenate([docs, np.array(extra_d, np.int64)])
        order = np.argsort(docs, kind="stable")
        sh, docs = sh[order], docs[order]
    return sh, docs


def _explode_words(texts: pd.Series) -> tuple:
    """normalized texts → (flat word array, doc index per word, n_docs)."""
    n = len(texts)
    words = texts.str.split()
    lengths = words.str.len().fillna(0).to_numpy(dtype=np.int64)
    doc_of_word = np.repeat(np.arange(n), lengths)
    flat = words.explode().dropna().to_numpy(dtype=object)
    return flat, doc_of_word, n


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Deduped shingle-hash set of ONE text (already-normalized input
    expected); the scalar sibling of the vectorized batch kernel — same
    fold, byte-identical values."""
    words = np.array(text.split(), dtype=object)
    if len(words) == 0:
        return np.zeros(0, dtype=np.uint64)
    wh = md5le64(words)
    sh, _ = _word_shingle_hashes(wh, np.zeros(len(wh), np.int64), n)
    return np.unique(sh)


class MinHasher:
    """Stateful minhash stage: hash coefficients drawn once per worker from a
    fixed seed (reference pattern: per-process dictionaries, SURVEY.md §2.6).
    Fully vectorized: word hashes via the md5 unique-word kernel, shingles
    via a polynomial fold, per-doc minima via ``np.minimum.reduceat`` — no
    Python loop over documents in the hot path."""

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_n: int = 3,
                 text_col: str = "text", id_col: str = "doc_id", seed: int = 97):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n
        self.text_col = text_col
        self.id_col = id_col

    def _minhash(self, sh: np.ndarray) -> np.ndarray:
        """(S,) shingle hashes → (P,) signature.

        The permutation family is ((a*s + b) mod 2**64) mod M — the
        product deliberately WRAPS in uint64 (numpy single-word
        arithmetic, no 128-bit widening in the hot path). The SQL oracle
        reproduces the wrap bit-for-bit (HUGEINT % 2^64 % M), so
        signatures — not just candidate pairs — are cross-engine exact."""
        v = (self.a[:, None] * (sh[None, :] % MERSENNE) + self.b[:, None]) \
            % MERSENNE
        return v.min(axis=1)

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(" ".join((text or "").lower().split()),
                             self.shingle_n)
        if len(sh) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        return self._minhash(sh)

    def signatures(self, texts: pd.Series) -> np.ndarray:
        """(n_docs, num_perm) signatures, vectorized across the batch."""
        flat, doc_of_word, n = _explode_words(texts)
        sigs = np.zeros((n, self.num_perm), dtype=np.uint64)
        if len(flat) == 0:
            return sigs
        wh = md5le64(flat)
        sh, docs = _word_shingle_hashes(wh, doc_of_word, self.shingle_n)
        if len(sh) == 0:
            return sigs
        # per-(perm, doc) minima in one reduceat per perm dimension
        v = (self.a[:, None] * (sh[None, :] % MERSENNE) + self.b[:, None]) \
            % MERSENNE
        starts = np.searchsorted(docs, np.arange(n), side="left")
        present = np.unique(docs)
        mins = np.minimum.reduceat(v, starts[present], axis=1)
        sigs[present] = mins.T
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Explode each doc into one row per LSH band:
        (band, band_hash, doc_id)."""
        texts = normalize_for_fingerprint(batch[self.text_col].to_pandas())
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        sigs = self.signatures(texts)  # (n, P)
        sb = sigs.reshape(n, self.bands, self.rows_per_band)
        # band key = polynomial fold of the band's minhash values
        key = np.zeros((n, self.bands), dtype=np.uint64)
        for r in range(self.rows_per_band):
            key = key * _SHINGLE_C + sb[:, :, r]
        band_idx = np.tile(np.arange(self.bands, dtype=np.int32), n)
        return pa.table(
            {
                "band": pa.array(band_idx),
                "band_hash": pa.array(key.reshape(-1).astype(np.int64)
                                      .view(np.uint64)),
                "doc_id": pa.array(np.repeat(ids, self.bands)),
            }
        )


# skip LSH buckets with more than this many members: a degenerate bucket
# (boilerplate corpus) would otherwise go O(b^2) through the self-join. The
# skipped bucket keys are counted and printed (visible, never silent).
DEFAULT_MAX_BUCKET_IDS = 2048


def _join_kwargs(num_partitions=None):
    """Hash-join sizing shared by all pair joins: delegates to
    ``joins.hash_join_kw`` so the aggregator pool can never reserve more
    than half the cluster's CPUs (the deadlock-proof invariant)."""
    from etl_ray.ops.joins import hash_join_kw

    return hash_join_kw(num_partitions)


def _rename_col(old: str, new: str):
    def f(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [new if c == old else c for c in t.column_names])

    return f


def _bucket_self_pairs(sig, key_cols, id_col: str, max_bucket_ids: int,
                       payload_col: str = None):
    """Unique unordered id pairs per bucket via a hash SELF-JOIN on the
    bucket key — fully vectorized; no per-group Python lambda (a
    sort-groupby with 76k one-row groups measured 9s where this takes ~1s).

    Degenerate buckets (> max_bucket_ids members) are dropped up front:
    their keys are found with a tiny Count aggregate and filtered out
    (the count is printed, so truncation is visible)."""
    import pyarrow.compute as _pc
    from ray.data.aggregate import Count

    sig = sig.materialize()  # tiny (ids + band keys); joined against itself
    counts = sig.groupby(key_cols).aggregate(Count(alias_name="n"))
    hot = counts.filter(expr=f"n > {max_bucket_ids}").to_pandas()
    if len(hot):
        print(f"[dedup] skipping {len(hot)} LSH buckets over "
              f"{max_bucket_ids} members (largest: {int(hot['n'].max())})")
        if len(key_cols) == 1:
            hot_set = pa.array(hot[key_cols[0]])

            def drop_hot(t: pa.Table) -> pa.Table:
                mask = _pc.invert(_pc.is_in(
                    t[key_cols[0]], value_set=hot_set))
                return t.filter(mask)
        else:
            hot_idx = pd.MultiIndex.from_frame(hot[key_cols])

            def drop_hot(t: pa.Table) -> pa.Table:
                keys = pd.MultiIndex.from_frame(
                    t.select(key_cols).to_pandas())
                return t.filter(pa.array(~keys.isin(hot_idx)))

        sig = sig.map_batches(drop_hot, batch_format="pyarrow").materialize()
        if sig.count() == 0:
            # every bucket was degenerate: the join would lose the key
            # schema on an all-empty dataset — return typed empty pairs
            import ray.data as _rd

            id_type = pa.schema(sig.schema().base_schema).field(id_col).type
            empty = pa.schema(
                [(c, id_type) for c in ("id_a", "id_b")]
                + ([(payload_col, pa.binary()),
                    (f"{payload_col}_b", pa.binary())] if payload_col else [])
            ).empty_table()
            return _rd.from_arrow(empty)
        # blocks the drop EMPTIED are schema-less in Ray's RefBundle and
        # poison the hash-shuffle join (Acero: "No match ... FieldRef
        # band"); one repartition of the tiny surviving signature rows
        # coalesces them away
        cnt = sig.count()
        sig = sig.repartition(max(1, min(256, cnt // 65536 + 1)))

    keep = key_cols + [id_col] + ([payload_col] if payload_col else [])
    left = sig.map_batches(lambda t: t.select(keep), batch_format="pyarrow")
    right = left.map_batches(_rename_col(id_col, "id_b"),
                             batch_format="pyarrow")
    if payload_col:
        right = right.map_batches(
            _rename_col(payload_col, f"{payload_col}_b"),
            batch_format="pyarrow")
    joined = left.map_batches(_rename_col(id_col, "id_a"),
                              batch_format="pyarrow").join(
        right, on=tuple(key_cols), right_on=tuple(key_cols), **_join_kwargs())

    def tri(t: pa.Table) -> pa.Table:
        return t.filter(_pc.less(t["id_a"], t["id_b"]))

    return joined.map_batches(tri, batch_format="pyarrow")


def _dedup_pairs(pairs, aggs):
    """Cross-band pair dedup as a hash-combinable AGGREGATE (never a
    sort-shuffle + per-group Python lambda — the exact all-to-all shape
    BASELINE.md measured as pathological)."""
    return pairs.groupby(["id_a", "id_b"]).aggregate(*aggs)


def minhash_lsh_candidates(ds, *, num_perm: int = 64, bands: int = 16,
                           shingle_n: int = 3, text_col: str = "text",
                           id_col: str = "doc_id", concurrency: int = 4,
                           max_bucket_ids: int = DEFAULT_MAX_BUCKET_IDS):
    """Candidate near-dup pairs via MinHash banding; returns a Dataset of
    unique (id_a, id_b)."""
    from ray.data.aggregate import Count

    # constructed instance → task pool: the hash coefficients are tiny, and
    # a per-execution actor pool costs ~1s/actor in spawn; pass the CLASS +
    # concurrency for heavy-state variants
    sig = ds.map_batches(
        MinHasher(num_perm=num_perm, bands=bands, shingle_n=shingle_n,
                  text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )
    pairs = _bucket_self_pairs(sig, ["band", "band_hash"], "doc_id",
                               max_bucket_ids)
    return _dedup_pairs(pairs, [Count(alias_name="_nb")]).map_batches(
        lambda t: t.drop_columns(["_nb"]), batch_format="pyarrow")


def jaccard_of_texts(text_a: str, text_b: str, n: int = 3) -> float:
    # normalize exactly like candidate generation (MinHasher applies
    # normalize_for_fingerprint) so verification measures the same quantity
    # the LSH models — case/whitespace-only variants verify as jaccard 1.0
    text_a = " ".join((text_a or "").lower().split())
    text_b = " ".join((text_b or "").lower().split())
    a = set(_shingle_hashes(text_a, n).tolist())
    b = set(_shingle_hashes(text_b, n).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / max(len(a | b), 1)


class ShingleSets:
    """map_batches stage: documents → (doc_id, shingles binary) with
    per-doc DEDUPED shingle-hash sets, sorted ascending, packed as raw
    uint64 bytes (Acero hash joins carry binary payloads but not lists;
    the verify kernel unpacks with a zero-copy np.frombuffer)."""

    def __init__(self, shingle_n: int = 3, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.shingle_n = shingle_n
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = normalize_for_fingerprint(batch[self.text_col].to_pandas())
        flat, doc_of_word, n = _explode_words(texts)
        if len(flat) == 0:
            empty = pa.array([b""] * n, pa.binary())
            return pa.table({self.id_col: batch[self.id_col],
                             "shingles": empty})
        wh = md5le64(flat)
        sh, docs = _word_shingle_hashes(wh, doc_of_word, self.shingle_n)
        # per-doc sorted unique: lexsort by (doc, hash), drop equal neighbors
        order = np.lexsort((sh, docs))
        sh, docs = sh[order], docs[order]
        keep = np.ones(len(sh), dtype=bool)
        keep[1:] = (sh[1:] != sh[:-1]) | (docs[1:] != docs[:-1])
        sh, docs = sh[keep], docs[keep]
        counts = np.bincount(docs, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        blobs = [sh[offsets[d]:offsets[d + 1]].tobytes() for d in range(n)]
        return pa.table({self.id_col: batch[self.id_col],
                         "shingles": pa.array(blobs, pa.binary())})


def _pair_jaccard(batch: pa.Table) -> pa.Table:
    """Exact Jaccard per candidate pair from two sorted packed shingle sets
    (numpy intersect on the pair's own arrays — no quadratic scan)."""
    sa = batch["shingles_a"].to_pylist()
    sb = batch["shingles_b"].to_pylist()
    out = np.empty(len(batch), dtype=np.float64)
    for i in range(len(batch)):
        a = np.frombuffer(sa[i] or b"", dtype=np.uint64)
        b = np.frombuffer(sb[i] or b"", dtype=np.uint64)
        if len(a) == 0 and len(b) == 0:
            out[i] = 1.0
            continue
        inter = len(np.intersect1d(a, b, assume_unique=True))
        out[i] = inter / max(len(a) + len(b) - inter, 1)
    return pa.table({
        "id_a": batch["id_a"],
        "id_b": batch["id_b"],
        "jaccard": pa.array(out),
    })


def verify_candidates(ds, cand, *, threshold: float, shingle_n: int = 3,
                      text_col: str = "text", id_col: str = "doc_id",
                      num_partitions: int = None):
    """Distributed exact-Jaccard verification: shingle sets are hash-JOINED
    onto the candidate pairs (two joins, one per side) and verified inside
    map_batches — the candidate set never materializes on the driver.

    Join aggregators are sized explicitly: Ray's default reserves ~1 GB
    memory per aggregator, which deadlocks small sessions; shingle rows are
    a few KB each, so a modest reservation is right at any scale (spill
    covers the tail)."""
    join_kw = _join_kwargs(num_partitions)
    # joined twice (one side per join): the packed sets are a fraction of
    # the text corpus (~8 B/shingle), so caching beats re-reading and
    # re-shingling the documents for the second join
    shingled = ds.map_batches(
        ShingleSets(shingle_n=shingle_n, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    ).materialize()

    def rename(old: str, new: str):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns(
                [new if c == old else c for c in t.column_names])

        return f

    joined = cand.join(
        shingled, on=("id_a",), right_on=(id_col,), right_suffix="_a",
        **join_kw,
    ).map_batches(
        rename("shingles", "shingles_a"), batch_format="pyarrow",
    ).join(
        shingled, on=("id_b",), right_on=(id_col,), right_suffix="_b",
        **join_kw,
    ).map_batches(
        rename("shingles", "shingles_b"), batch_format="pyarrow",
    )
    verified = joined.map_batches(_pair_jaccard, batch_format="pyarrow")
    return verified.filter(expr=f"jaccard >= {threshold}")


def minhash_near_dups(ds, *, threshold: float = 0.5, num_perm: int = 64,
                      bands: int = 16, shingle_n: int = 3,
                      text_col: str = "text", id_col: str = "doc_id",
                      concurrency: int = 4):
    """Full near-dup pipeline: MinHash-LSH candidates → DISTRIBUTED exact
    n-gram Jaccard verification (hash join of shingle sets onto pairs).
    Returns a pandas DataFrame (id_a, id_b, jaccard ≥ threshold), sorted."""
    cand = minhash_lsh_candidates(
        ds, num_perm=num_perm, bands=bands, shingle_n=shingle_n,
        text_col=text_col, id_col=id_col, concurrency=concurrency,
    )
    out = verify_candidates(
        ds, cand, threshold=threshold, shingle_n=shingle_n,
        text_col=text_col, id_col=id_col,
    ).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ------------------------------------------------------------------- SimHash
class SimHasher:
    """64-bit SimHash per doc from word-feature hashes. Vectorized across
    the batch: md5 unique-word hashes → bit matrix via np.unpackbits →
    per-doc ±1 sums via np.add.reduceat → sign bits packed back to uint64."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    @staticmethod
    def simhash64(text: str) -> int:
        words = np.array((text or "").split(), dtype=object)
        if len(words) == 0:
            return 0
        hs = md5le64(words)
        bits = np.unpackbits(hs[:, None].view(np.uint8), axis=1,
                             bitorder="little").astype(np.int32)
        v = (2 * bits - 1).sum(axis=0)
        return int(((v > 0).astype(np.uint64)
                    << np.arange(64, dtype=np.uint64)).sum())

    def signatures(self, texts: pd.Series) -> np.ndarray:
        flat, doc_of_word, n = _explode_words(texts)
        sigs = np.zeros(n, dtype=np.uint64)
        if len(flat) == 0:
            return sigs
        hs = md5le64(flat)
        # (words, 64) bit matrix; column j == bit j of the word hash
        bits = np.unpackbits(hs[:, None].view(np.uint8), axis=1,
                             bitorder="little").astype(np.int32)
        contrib = 2 * bits - 1
        present = np.unique(doc_of_word)
        starts = np.searchsorted(doc_of_word, np.arange(n), side="left")
        sums = np.add.reduceat(contrib, starts[present], axis=0)
        sign = (sums > 0).astype(np.uint8)
        packed = np.packbits(sign, axis=1, bitorder="little")
        sigs[present] = packed.copy().view(np.uint64).ravel()
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = normalize_for_fingerprint(batch[self.text_col].to_pandas())
        sh = self.signatures(texts)
        out = pa.table(
            {
                self.id_col: batch[self.id_col],
                "simhash": pa.array(sh, type=pa.uint64()),
            }
        )
        # 4 × 16-bit chunks: near-dups within hamming distance 3 share at
        # least one chunk (pigeonhole) → banding key for the groupby
        chunks = [((sh >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.int64)
                  for i in range(4)]
        for i, c in enumerate(chunks):
            out = out.append_column(f"chunk{i}", pa.array(c))
        return out


def simhash_candidates(ds, *, max_hamming: int = 3, text_col: str = "text",
                       id_col: str = "doc_id", concurrency: int = 4,
                       max_bucket_ids: int = DEFAULT_MAX_BUCKET_IDS):
    """Near-dup pairs by SimHash banding + exact hamming verify inside each
    16-bit-chunk bucket (pigeonhole: hamming ≤ 3 shares ≥ 1 of 4 chunks)."""
    from ray.data.aggregate import Min

    sigs = ds.map_batches(
        SimHasher(text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )

    def explode(batch: pa.Table) -> pa.Table:
        tabs = []
        for i in range(4):
            tabs.append(pa.table({
                id_col: batch[id_col],
                "simhash": batch["simhash"],
                "bucket": pc.add(pc.multiply(batch[f"chunk{i}"], 4), i),
            }))
        return pa.concat_tables(tabs)

    cand = _bucket_self_pairs(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["bucket"], id_col, max_bucket_ids, payload_col="simhash")

    def hamming(t: pa.Table) -> pa.Table:
        a = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["simhash_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ham = popcount64(a ^ b)
        out = pa.table({
            "id_a": t["id_a"], "id_b": t["id_b"],
            "hamming": pa.array(ham),
        })
        return out.filter(pa.array(ham <= max_hamming))

    cand = cand.map_batches(hamming, batch_format="pyarrow")
    return _dedup_pairs(cand, [Min("hamming", alias_name="hamming")])


# ------------------------------------------------- benchmark contamination
def benchmark_shingles(bench_ds, *, shingle_n: int = 3,
                       text_col: str = "text") -> np.ndarray:
    """DISTINCT shingle hashes of a benchmark/eval corpus, sorted, on the
    driver. The benchmark is the SMALL side by definition (held-out eval
    sets are orders of magnitude smaller than a training corpus); the
    distributed pass collapses to distinct hashes per batch before the
    groupby, so only distinct hashes ever shuffle."""
    from ray.data.aggregate import Count

    # the exchange carries the hashes as int64 BIT PATTERNS: a uint64
    # column with values above 2^63 trips Ray's groupby reduce into an
    # OverflowError -> arrow_pickled_object fallback (pickled Python
    # objects through the shuffle); the int64 view is lossless and keeps
    # the exchange a plain fixed-width Arrow column (same trick as
    # MinHasher's signature columns)
    def per_batch(t: pa.Table) -> pa.Table:
        if len(t) == 0 or text_col not in t.column_names:
            return pa.table({"h": pa.array([], pa.int64())})
        texts = normalize_for_fingerprint(t[text_col].to_pandas())
        flat, dow, _n = _explode_words(texts)
        if len(flat) == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        sh, _docs = _word_shingle_hashes(md5le64(flat), dow, shingle_n)
        return pa.table({"h": pa.array(np.unique(sh).view(np.int64))})

    distinct = (
        bench_ds.map_batches(per_batch, batch_format="pyarrow")
        .groupby("h").aggregate(Count(alias_name="_n"))
        .select_columns(["h"]).to_pandas()
    )
    return np.sort(distinct["h"].to_numpy(np.int64).view(np.uint64))


def contamination_flags(ds, bench_hashes: np.ndarray, *,
                        shingle_n: int = 3, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Train/test overlap detection: per document, how many of its
    DISTINCT word n-gram shingles appear in the benchmark shingle set →
    (id, n_hits, contaminated). The decontamination pass every serious
    pre-training pipeline runs before training.

    Scale shape: the benchmark hash set is broadcast ONCE (``ray.put``)
    and binary-searched inside each task — the corpus streams, nothing
    shuffles, membership is O(log |bench|) per shingle with zero Python
    per row."""
    import ray

    ref = ray.put(np.ascontiguousarray(bench_hashes, dtype=np.uint64))

    def check(t: pa.Table) -> pa.Table:
        empty = pa.schema([
            pa.field(id_col, t.schema.field(id_col).type
                     if id_col in t.column_names else pa.int64()),
            pa.field("n_hits", pa.int64()),
            pa.field("contaminated", pa.bool_()),
        ])
        if len(t) == 0 or text_col not in t.column_names:
            return empty.empty_table()
        bh = ray.get(ref)
        ids = t[id_col]
        texts = normalize_for_fingerprint(t[text_col].to_pandas())
        nd = len(t)
        hits = np.zeros(nd, np.int64)
        flat, dow, _n = _explode_words(texts)
        if len(flat):
            sh, docs = _word_shingle_hashes(md5le64(flat), dow, shingle_n)
            if len(sh):
                # distinct (doc, shingle) pairs: one lexsort + adjacent-dup
                # mask (n_hits counts DISTINCT contaminated shingles)
                order = np.lexsort((sh, docs))
                ds_, ss_ = docs[order], sh[order]
                keep = np.ones(len(ss_), dtype=bool)
                keep[1:] = (ds_[1:] != ds_[:-1]) | (ss_[1:] != ss_[:-1])
                ds_, ss_ = ds_[keep], ss_[keep]
                if len(bh):
                    pos = np.minimum(np.searchsorted(bh, ss_), len(bh) - 1)
                    hit = bh[pos] == ss_
                    hits = np.bincount(
                        ds_[hit], minlength=nd).astype(np.int64)
        return pa.table({
            id_col: ids,
            "n_hits": pa.array(hits),
            "contaminated": pa.array(hits > 0),
        })

    return ds.map_batches(check, batch_format="pyarrow")


def exact_dedup_tokens(ds, *, tokens_col: str = "tokens",
                       id_col: str = "doc_id"):
    """Exact dedup by token-ARRAY equality — the tokens-payload analog of
    exact_dedup: two docs are duplicates iff their token sequences are
    identical. Returns one row per distinct sequence:
    (id = lexicographic-min member, n_dups = member count).

    Scale shape: each batch hashes its rows with a vectorized ragged
    polynomial fold (flatten + per-position power gather + scatter-add —
    no Python loop over rows) and collapses batch-locally, so only one
    row per distinct (hash) per batch enters the shuffle; the global
    groupby then folds (min id, count) — mergeable aggregates end to end.
    The hash folds the length in (h = L·salt + Σ (v_j+1)·C^(L-1-j) in
    uint64), so prefix-shaped sequences don't collide trivially; at
    64 bits accidental collisions are ~n²/2⁶⁵."""
    import pyarrow.compute as _pc
    from ray.data.aggregate import Min, Sum

    C = _SHINGLE_C
    SALT = np.uint64(0x9E3779B97F4A7C15)

    def per_batch(t: pa.Table) -> pa.Table:
        lists = t[tokens_col]
        Lf = _pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        null_mask = np.isnan(Lf) if Lf.dtype.kind == "f" \
            else np.zeros(len(Lf), dtype=bool)
        L = np.nan_to_num(Lf, nan=0.0).astype(np.int64)
        vals = _pc.list_flatten(lists).to_numpy(
            zero_copy_only=False).astype(np.uint64)
        n = len(L)
        h = L.astype(np.uint64) * SALT
        # a NULL tokens entry is its own group, distinct from []
        h[null_mask] = np.uint64(0xFFFFFFFFFFFFFFFF)
        if len(vals):
            maxlen = int(L.max())
            pw = np.empty(maxlen, np.uint64)
            pw[0] = np.uint64(1)
            for k in range(1, maxlen):  # O(max doc len), not O(rows)
                pw[k] = pw[k - 1] * C
            off = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(L, out=off[1:])
            row = np.repeat(np.arange(n), L)
            idx = np.arange(len(vals), dtype=np.int64)
            exps = off[1:][row] - 1 - idx
            contrib = (vals + np.uint64(1)) * pw[exps]
            np.add.at(h, row, contrib)  # uint64 wrap, commutative
        f = pd.DataFrame({"h": h.view(np.int64),
                          "i": t[id_col].to_numpy(zero_copy_only=False)})
        g = f.groupby("h", as_index=False).agg(
            doc_min=("i", "min"), n=("i", "size"))
        return pa.table({
            "h": pa.array(g["h"].to_numpy()),
            "doc_min": pa.array(g["doc_min"], pa.string()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
        })

    agg = (ds.map_batches(per_batch, batch_format="pyarrow")
           .groupby("h")
           .aggregate(Min("doc_min", alias_name="doc_id"),
                      Sum("n", alias_name="n_dups")))
    return agg.map_batches(
        lambda t: t.drop_columns(["h"]), batch_format="pyarrow")
