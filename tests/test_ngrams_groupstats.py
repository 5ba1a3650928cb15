"""Token n-gram counts / PMI (ops/ngrams.py) and grouped statistics:
z-score, grouped quantiles, rollup, pivot (ops/stats.py)."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds_from(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df))


# ---------------------------------------------------------------- ngrams
@pytest.mark.usefixtures("ray_session")
def test_bigram_counts_no_cross_doc_pairs():
    from etl_ray.ops.ngrams import bigram_counts

    df = pd.DataFrame({"text": ["a b c", "c a", "x", ""]})
    out = bigram_counts(_ds_from(df)).to_pandas()
    got = {(r.w1, r.w2): r.n for r in out.itertuples()}
    # "c"→"c" would only appear if doc boundaries leaked
    assert got == {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}


@pytest.mark.usefixtures("ray_session")
def test_bigram_min_count_applied_after_global_combine():
    from etl_ray.ops.ngrams import bigram_counts

    # the same pair split across many rows (and hence likely batches)
    df = pd.DataFrame({"text": ["p q"] * 7 + ["r s"]})
    out = bigram_counts(_ds_from(df), min_count=5).to_pandas()
    assert out[["w1", "w2"]].values.tolist() == [["p", "q"]]
    assert out["n"].tolist() == [7]


@pytest.mark.usefixtures("ray_session")
def test_pmi_matches_closed_form():
    from etl_ray.ops.ngrams import pmi_bigrams

    df = pd.DataFrame({"text": ["a b", "a b", "a c"]})
    out = pmi_bigrams(_ds_from(df), min_count=1)
    # T = 6 tokens, P = 3 pairs; n(a)=3 n(b)=2 n(c)=1
    exp_ab = round(math.log((2 / 3) / ((3 / 6) * (2 / 6))), 4)
    exp_ac = round(math.log((1 / 3) / ((3 / 6) * (1 / 6))), 4)
    got = {(r.w1, r.w2): r.pmi for r in out.itertuples()}
    assert got == {("a", "b"): exp_ab, ("a", "c"): exp_ac}


@pytest.mark.usefixtures("ray_session")
def test_bigram_lm_scores_closed_form():
    from etl_ray.ops.ngrams import bigram_lm_scores

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["a b", "a b", "a c", "z"]})
    out = bigram_lm_scores(_ds_from(df), id_col="doc_id", text_col="text")
    # n(a)=3; n(a,b)=2, n(a,c)=1 → scores ln(2/3) and ln(1/3)
    got = dict(zip(out["doc_id"], out["lm_score"]))
    assert got[1] == got[2] == round(math.log(2 / 3), 4)
    assert got[3] == round(math.log(1 / 3), 4)
    assert 4 not in got  # single-token doc has no transitions
    assert out["n_pairs"].tolist() == [1, 1, 1]


# ---------------------------------------------------------------- zscore
@pytest.mark.usefixtures("ray_session")
def test_group_zscore_mean_zero_unit_variance():
    from etl_ray.ops.stats import group_zscore

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "id": np.arange(2000),
        "g": np.repeat(["x", "y"], 1000),
        "v": np.round(np.concatenate([rng.normal(10, 2, 1000),
                                      rng.normal(50, 9, 1000)]), 2),
    })
    out = group_zscore(_ds_from(df), col="v", by="g", id_col="id") \
        .to_pandas()
    assert len(out) == 2000
    for g in ("x", "y"):
        z = out[out["g"] == g]["z"]
        assert abs(z.mean()) < 1e-6
        assert abs(z.std(ddof=0) - 1.0) < 1e-6


@pytest.mark.usefixtures("ray_session")
def test_group_zscore_drops_null_values():
    from etl_ray.ops.stats import group_zscore

    df = pd.DataFrame({"id": [1, 2, 3], "g": ["a"] * 3,
                       "v": [1.0, None, 3.0]})
    out = group_zscore(_ds_from(df), col="v", by="g", id_col="id") \
        .to_pandas()
    assert sorted(out["id"]) == [1, 3]


# ----------------------------------------------------- grouped quantiles
@pytest.mark.usefixtures("ray_session")
def test_grouped_quantiles_disc_semantics():
    from etl_ray.ops.stats import grouped_quantiles

    df = pd.DataFrame({"g": ["a"] * 100 + ["b"] * 10,
                       "v": list(range(1, 101)) + list(range(10, 110, 10))})
    out = grouped_quantiles(_ds_from(df), col="v", by="g",
                            qs=[0.5, 0.95]).to_pandas()
    got = {(r.g, r.q): r.value for r in out.itertuples()}
    assert got == {("a", 0.5): 50.0, ("a", 0.95): 95.0,
                   ("b", 0.5): 50.0, ("b", 0.95): 100.0}


@pytest.mark.usefixtures("ray_session")
def test_grouped_quantiles_null_group_key_is_its_own_group():
    # regression: factorize code -1 used to wrap into uniques[-1], leaking
    # the NULL-key rows' quantiles into the LAST real group
    from etl_ray.ops.stats import grouped_quantiles

    df = pd.DataFrame({"g": ["a", None, "b", None, "b"],
                       "v": [1.0, 100.0, 2.0, 200.0, 4.0]})
    out = grouped_quantiles(_ds_from(df), col="v", by="g",
                            qs=[0.5]).to_pandas()
    real = out[out["g"].notna()]
    got = {(r.g, r.q): r.value for r in real.itertuples()}
    assert got[("a", 0.5)] == 1.0
    assert got[("b", 0.5)] == 2.0  # must NOT absorb the null-key rows
    nullrow = out[out["g"].isna()]
    assert len(nullrow) == 1 and nullrow["value"].iloc[0] == 100.0
    assert len(out) == 3


@pytest.mark.usefixtures("ray_session")
def test_hash_join_kw_reservation_never_exceeds_half_cluster():
    # a caller-pinned high partition count on a small cluster must not
    # reserve more than cpus/2 for the parked aggregator actors
    import ray

    from etl_ray.ops.joins import hash_join_kw

    cpus = int(ray.cluster_resources().get("CPU", 0)) or 4
    for np_req in (None, 8, 64, 10_000):
        kw = hash_join_kw(np_req)
        total = (kw["num_partitions"]
                 * kw["aggregator_ray_remote_args"]["num_cpus"])
        assert total <= cpus / 2.0 + 1e-9, (np_req, kw)


# ------------------------------------------------------------------ rollup
@pytest.mark.usefixtures("ray_session")
def test_rollup_levels_consistent():
    from etl_ray.ops.stats import rollup_counts

    df = pd.DataFrame({"s": ["u", "u", "w"], "l": ["en", "de", "en"],
                       "c": [10, 20, 30]})
    out = rollup_counts(_ds_from(df), cols=["s", "l"], agg_col="c")
    total = out[out["s"].isna() & out["l"].isna()]
    assert total["n"].tolist() == [3] and total["c_sum"].tolist() == [60]
    per_s = out[out["s"].notna() & out["l"].isna()].set_index("s")
    assert per_s.loc["u", "c_sum"] == 30 and per_s.loc["w", "c_sum"] == 30
    fine = out[out["l"].notna()]
    assert len(fine) == 3 and fine["n"].sum() == 3


# ------------------------------------------------------------------ pivot
@pytest.mark.usefixtures("ray_session")
def test_pivot_avg_cents_exact_and_null_for_absent():
    from etl_ray.ops.stats import pivot_avg_cents

    df = pd.DataFrame({
        "u": [1, 1, 1, 2],
        "t": ["a", "a", "b", "a"],
        "v": [1.25, 2.75, 10.0, 4.0],
    })
    out = pivot_avg_cents(_ds_from(df), index="u", pivot_col="t",
                          value_col="v", values=["a", "b"]).to_pandas()
    out = out.sort_values("u").reset_index(drop=True)
    assert out["avg_a"].tolist() == [2.0, 4.0]
    assert out.loc[0, "avg_b"] == 10.0
    assert np.isnan(out.loc[1, "avg_b"])  # user 2 has no 'b' events


@pytest.mark.usefixtures("ray_session")
def test_token_id_histogram():
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.textops import token_id_histogram

    t = pa.table({"tokens": pa.array(
        [[1, 2, 2], [2, 3], [], [1]], pa.list_(pa.int32()))})
    out = (token_id_histogram(rd.from_arrow(t).repartition(2)).to_pandas()
           .sort_values("token_id").reset_index(drop=True))
    assert out["token_id"].tolist() == [1, 2, 3]
    assert out["n"].tolist() == [2, 3, 1]


@pytest.mark.usefixtures("ray_session")
def test_source_kl_divergence():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.ngrams import source_kl_divergence

    # source 'same' mirrors the corpus mix; 'skew' is all one token
    t = pa.table({
        "source": pa.array(["same", "same", "skew", "skew"]),
        "text": pa.array(["a b", "c d", "z z", "z z"]),
    })
    out = (source_kl_divergence(rd.from_arrow(t)).to_pandas()
           .sort_values("source").reset_index(drop=True))
    assert out["n_tok"].tolist() == [4, 4]
    # hand-computed: corpus p(z)=0.5, others 0.125 each
    # same: 4 tokens p_s=0.25 each -> sum 0.25*ln(0.25/0.125)*4 = ln 2
    # skew: p_s(z)=1 -> ln(1/0.5) = ln 2
    exp = np.floor(np.log(2) * 1e4 + 0.5) / 1e4
    assert out["kl_nats"].tolist() == [exp, exp]


@pytest.mark.usefixtures("ray_session")
def test_source_kl_divergence_counts_once(tmp_path):
    """The (source, token) count table feeds two consumers; it is built
    once, so the upstream tokenizing map runs once per input block."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.ngrams import source_kl_divergence

    log = str(tmp_path / "calls")

    def mark(t: pa.Table) -> pa.Table:
        with open(log, "a") as fh:
            fh.write("x\n")
        return t

    blocks = [pa.table({"source": pa.array(["same", "same"]),
                        "text": pa.array(["a b", "c d"])}),
              pa.table({"source": pa.array(["skew", "skew"]),
                        "text": pa.array(["z z", "z z"])})]
    ds = rd.from_arrow(blocks).map_batches(mark, batch_format="pyarrow",
                                           batch_size=None)
    out = (source_kl_divergence(ds).to_pandas()
           .sort_values("source").reset_index(drop=True))
    exp = np.floor(np.log(2) * 1e4 + 0.5) / 1e4
    assert out["kl_nats"].tolist() == [exp, exp]
    assert out["n_tok"].tolist() == [4, 4]
    with open(log) as fh:
        assert len(fh.read().split()) == len(blocks)
