"""Token n-gram statistics over a text corpus: bigram counts and PMI
collocations.

The canonical corpus statistics behind tokenizer training and
collocation-aware filtering in a pre-training pipeline (complements
textops.token_histogram, whose tokenization this module reuses exactly).

Scale shape: pairs are counted WITHIN each batch first (flat token array
+ boundary mask + value_counts — no per-row Python loop), so the shuffle
moves one row per DISTINCT pair per batch and the combine is a
hash-aggregate Sum. PMI broadcasts the unigram table once via ``ray.put``
(bounded by ``max_broadcast_vocab``); corpora whose vocabulary exceeds
the bound should join instead — the count tables are plain datasets, so
``Dataset.join`` on w1/w2 is the drop-in unbounded path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

def _flat_pairs(df: pd.DataFrame, text_col: str) -> pd.DataFrame:
    """All adjacent token pairs in a batch as a (w1, w2) frame (documents
    never pair across their boundary)."""
    s = df[text_col].astype(str).str.split()
    lens = s.str.len().fillna(0).to_numpy(dtype=np.int64)
    keep = lens >= 2  # need at least one pair
    if not keep.any():
        return pd.DataFrame({"w1": pd.Series([], dtype=object),
                             "w2": pd.Series([], dtype=object)})
    s2, lens2 = s[keep], lens[keep]
    flat = s2.explode().to_numpy()
    ends = np.cumsum(lens2)
    valid = np.ones(len(flat) - 1, dtype=bool)
    valid[ends[:-1] - 1] = False  # pair crossing a doc boundary
    return pd.DataFrame({"w1": flat[:-1][valid], "w2": flat[1:][valid]})


def bigram_counts(ds, *, text_col: str = "text", min_count: int = 1):
    """(w1, w2, n) over whitespace-token bigrams; pairs with fewer than
    ``min_count`` total occurrences are dropped AFTER the global combine.
    The global combine is a two-key hash aggregate (no separator-encoded
    composite keys — tokens may contain any non-whitespace byte)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        pairs = _flat_pairs(df, text_col)
        out = pairs.groupby(["w1", "w2"], as_index=False, sort=False) \
            .size().rename(columns={"size": "n"})
        out["n"] = out["n"].astype("int64")
        return out

    agg = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["w1", "w2"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def thresh(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return t.filter(pc.greater_equal(t["n"], min_count))

    return agg.map_batches(thresh, batch_format="pyarrow")


def unigram_counts(ds, *, text_col: str = "text"):
    """(token, n) — same tokenization as bigram_counts (and
    textops.token_histogram)."""
    from etl_ray.ops.textops import token_histogram

    return token_histogram(ds, text_col=text_col)


def bigram_lm_scores(ds, *, id_col: str = "doc_id",
                     text_col: str = "text", round_to: int = 4,
                     max_broadcast_pairs: int = 5_000_000):
    """Per-document n-gram language-model quality score: the mean
    ``ln(p(w2 | w1))`` over the document's adjacent pairs, with
    ``p(w2|w1) = n(w1,w2) / n(w1)`` estimated from the corpus itself.
    The curation primitive behind perplexity-style filtering — documents
    whose word transitions are rare in the corpus score low.

    Two passes: (1) corpus bigram+unigram counts (distributed, see
    bigram_counts); (2) stateless per-batch scoring against the counts
    broadcast once via ``ray.put`` — the per-batch join is a vectorized
    pandas hash merge, no per-pair Python lookup. Documents with fewer
    than 2 tokens are skipped (no transitions to score).
    Returns a pandas DataFrame (id_col, n_pairs, lm_score)."""
    import ray

    big = bigram_counts(ds, text_col=text_col).to_pandas()
    if len(big) > max_broadcast_pairs:
        raise ValueError(
            f"bigram table {len(big)} exceeds max_broadcast_pairs "
            f"{max_broadcast_pairs}; score by joining pair datasets "
            "instead of broadcasting")
    uni = unigram_counts(ds, text_col=text_col).to_pandas()
    big_ref = ray.put(big)
    uni_ref = ray.put(dict(zip(uni["token"], uni["n"].astype(np.int64))))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        bt = ray.get(big_ref)
        ut = ray.get(uni_ref)
        s = df[text_col].astype(str).str.split()
        lens = s.str.len().fillna(0).to_numpy(dtype=np.int64)
        keep = lens >= 2
        empty = pd.DataFrame({
            id_col: pd.Series([], dtype=df[id_col].dtype),
            "n_pairs": pd.Series([], dtype="int64"),
            "lm_score": pd.Series([], dtype="float64")})
        if not keep.any():
            return empty
        ids, s2, lens2 = df[id_col].to_numpy()[keep], s[keep], lens[keep]
        flat = s2.explode().to_numpy()
        ends = np.cumsum(lens2)
        valid = np.ones(len(flat) - 1, dtype=bool)
        valid[ends[:-1] - 1] = False
        doc_of = np.repeat(np.arange(len(ids)), lens2)[:-1][valid]
        pairs = pd.DataFrame({"w1": flat[:-1][valid],
                              "w2": flat[1:][valid], "_d": doc_of})
        m = pairs.merge(bt, on=["w1", "w2"], how="left")
        nx = pairs["w1"].map(ut).to_numpy(np.float64)
        lp = np.log(m["n"].to_numpy(np.float64) / nx)
        g = pd.DataFrame({"_d": pairs["_d"], "lp": lp}) \
            .groupby("_d", sort=True)["lp"].agg(["count", "mean"])
        return pd.DataFrame({
            id_col: ids[g.index.to_numpy()],
            "n_pairs": g["count"].to_numpy(np.int64),
            "lm_score": np.round(g["mean"].to_numpy(), round_to)})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


def pmi_bigrams(ds, *, text_col: str = "text", min_count: int = 2,
                round_to: int = 4, max_broadcast_vocab: int = 2_000_000):
    """Pointwise mutual information per bigram:
    ``pmi = ln((n_xy / P) / ((n_x / T) * (n_y / T)))`` with P = total
    pairs, T = total tokens. Returns a pandas DataFrame
    (w1, w2, n, pmi) for pairs with ``n >= min_count``.

    The unigram table is broadcast once (one ``ray.put``, read per task);
    its size is asserted against ``max_broadcast_vocab`` so a web-scale
    vocabulary fails loudly toward the join path instead of OOMing."""
    import ray

    uni = unigram_counts(ds, text_col=text_col).to_pandas()
    if len(uni) > max_broadcast_vocab:
        raise ValueError(
            f"vocabulary {len(uni)} exceeds max_broadcast_vocab "
            f"{max_broadcast_vocab}; join bigrams against unigram_counts "
            "datasets instead of broadcasting")
    T = int(uni["n"].sum())
    lookup = dict(zip(uni["token"], uni["n"].astype(np.int64)))
    ref = ray.put(lookup)

    big = bigram_counts(ds, text_col=text_col, min_count=min_count)

    def score(t: pa.Table) -> pa.Table:
        lk = ray.get(ref)
        if len(t) == 0:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64()),
                             "pmi": pa.array([], pa.float64())})
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        nx = pd.Series(t["w1"].to_pylist()).map(lk).to_numpy(np.float64)
        ny = pd.Series(t["w2"].to_pylist()).map(lk).to_numpy(np.float64)
        pmi = np.log((n / score.P) / ((nx / T) * (ny / T)))
        return pa.table({"w1": t["w1"], "w2": t["w2"], "n": t["n"],
                         "pmi": pa.array(np.round(pmi, round_to))})

    # P = total adjacent pairs in the corpus = Σ_doc max(len_doc - 1, 0).
    # Derived with one tiny aggregate over per-batch partials.
    from ray.data.aggregate import Sum

    def pair_total(df: pd.DataFrame) -> pd.DataFrame:
        lens = df[text_col].astype(str).str.split().str.len() \
            .fillna(0).to_numpy(dtype=np.int64)
        return pd.DataFrame({"p": [int(np.maximum(lens - 1, 0).sum())]})

    P = int(ds.map_batches(pair_total, batch_format="pandas")
            .aggregate(Sum("p", alias_name="p"))["p"])
    score.P = float(P)

    out = big.map_batches(score, batch_format="pyarrow").to_pandas()
    return out.sort_values(["w1", "w2"]).reset_index(drop=True)


def source_kl_divergence(ds, *, source_col: str = "source",
                         text_col: str = "text", round_to: int = 4):
    """Per-source KL divergence of the source's token distribution from
    the whole-corpus distribution, in nats — the drift detector that
    flags a source whose vocabulary stopped looking like the corpus
    (encoding breakage, scraper drift, template floods).

    KL(p_s || p_c) = Σ_t p_s(t) · ln(p_s(t) / p_c(t)); p_c covers every
    source's tokens, so the ratio is always finite. Scale shape: one
    combiner-first (source, token) count pass — the shuffle carries one
    row per distinct (source, token) per batch, never the token stream —
    then the per-source fold runs inside map_groups on the token-count
    table; nothing token-shaped reaches the driver."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df[text_col].notna()]
        toks = d[text_col].astype(str).str.split().explode().dropna()
        f = pd.DataFrame({
            source_col: d[source_col].reindex(toks.index).to_numpy(),
            "token": toks.to_numpy(),
        })
        g = f.groupby([source_col, "token"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    # materialized once: both consumers below read it, and a lazy dataset
    # would re-run the tokenize + (source, token) shuffle for each
    counts = (ds.map_batches(partial, batch_format="pandas")
              .groupby([source_col, "token"])
              .aggregate(Sum("n", alias_name="n"))).materialize()

    # corpus totals per token are a second small aggregate of the SAME
    # count table; both sides are |vocab|-scale, so the join is cheap
    cdf = counts.groupby("token").aggregate(
        Sum("n", alias_name="n_corpus")).to_pandas()
    total_c = float(cdf["n_corpus"].sum())

    import ray
    cref = ray.put(cdf.set_index("token")["n_corpus"])

    def per_source(g: pd.DataFrame) -> pd.DataFrame:
        nc = ray.get(cref)
        n_s = g["n"].to_numpy(dtype=np.float64)
        tot_s = n_s.sum()
        p_s = n_s / tot_s
        p_c = nc.reindex(g["token"]).to_numpy(dtype=np.float64) / total_c
        kl = float((p_s * np.log(p_s / p_c)).sum())
        return pd.DataFrame({
            source_col: [g[source_col].iloc[0]],
            "n_tok": [np.int64(tot_s)],
            "kl_nats": [np.floor(kl * 10 ** round_to + 0.5)
                        / 10 ** round_to + 0.0],
        })

    return counts.groupby(source_col).map_groups(
        per_source, batch_format="pandas")
