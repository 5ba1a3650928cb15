"""Round-4 regression tests for the ADVICE.md r03 findings:

1. ptparis last_hop/reached computed BEFORE the ExpectedDestIP marker
   overwrite (multi-path last hop, reference pt.go:884-904).
2. fuzzyjoin all-empty batch width=0 crash + null text pairing.
3. bucketize_by_quantile unsorted qs.
4. scamper single-quote escape decoding.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

FIRST = ("traceroute [(64.86.132.76:33461) -> (98.162.212.214:53849)], "
         "protocol icmp, algo exhaustive, duration 19 s")


def test_paris_multipath_last_hop_stays_reached():
    """dest IP appears in the FINAL hop line but the final NODE is a
    different IP (multi-path last hop). The reference computes
    last_hop=dest / reached=True then marks the line (pt.go:884-904);
    re-evaluating after the marker overwrite used to flip both."""
    from etl_ray.ptparis import parse_paris

    text = "\n".join([
        FIRST,
        "1  P(6, 6)  a.example  (10.1.0.1)  0.1/0.2/0.3/0.4 ms",
        # two tuples on the last line: dest first, another node second
        "2  P(6, 6)  z.example  (98.162.212.214)  9.0/9.1/9.2/9.3 ms  "
        "other.example  (10.9.0.9)  8.0/8.1/8.2/8.3 ms",
    ])
    t = parse_paris(text)
    assert t.nodes[-1].ip == "10.9.0.9"  # final node is NOT the dest
    assert t.last_valid_hop_line == "ExpectedDestIP"
    # values must be stable post-marking (plain fields, not properties)
    assert t.last_hop == "98.162.212.214"
    assert t.reached_expected_dest is True


def test_deletion_signatures_all_empty_batch():
    from etl_ray.ops.fuzzyjoin import _SigGen, _deletion_signatures

    rows, sigs = _deletion_signatures(np.asarray(["", ""], dtype="U"))
    assert list(sigs) == ["", ""]
    # the map stage drops empty and null text instead of crashing/pairing
    t = pa.table({"id": pa.array([1, 2, 3], pa.int64()),
                  "name": pa.array(["", None, "ab"], pa.string())})
    out = _SigGen("id", "name")(t)
    assert set(out["id"].to_pylist()) == {3}
    assert "None" not in set(out["sig"].to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_edit1_pairs_ignores_nulls_and_empties():
    import ray

    from etl_ray.ops.fuzzyjoin import edit1_pairs

    ds = ray.data.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "name": pa.array([None, "", "", "abc", "abd"], pa.string()),
    }))
    got = edit1_pairs(ds, id_col="id", text_col="name").to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert pairs == {(4, 5)}  # no null/empty pairs at distance 0


@pytest.mark.usefixtures("ray_session")
def test_bucketize_unsorted_qs():
    import ray

    from etl_ray.ops.stats import bucketize_by_quantile

    df = pd.DataFrame({"id": np.arange(100),
                       "v": np.arange(100, dtype=np.float64)})
    ds = ray.data.from_pandas(df)
    a = bucketize_by_quantile(ds, col="v", qs=[0.25, 0.5, 0.75],
                              keep_cols=["id"]).to_pandas()
    b = bucketize_by_quantile(ds, col="v", qs=[0.75, 0.25, 0.5],
                              keep_cols=["id"]).to_pandas()
    merged = a.merge(b, on="id", suffixes=("_sorted", "_shuffled"))
    assert (merged["bucket_sorted"] == merged["bucket_shuffled"]).all()
    assert merged["bucket_sorted"].nunique() == 4


def test_scamper_single_quote_escapes_decoded():
    from etl_ray.scamper import tolerant_json_loads

    got = tolerant_json_loads(r"{'a': 'x\ny\tz\\w', 'b': 'qA'}")
    assert got == {"a": "x\ny\tz\\w", "b": "qA"}
    # \' still works and unknown escapes pass through verbatim
    assert tolerant_json_loads(r"{'k': 'it\'s \z'}") == {"k": r"it's \z"}


def test_grouped_quantiles_high_cardinality_50k_groups(ray_session):
    """The bucketed shape must stay exact at 50k distinct groups (the old
    per-group map_groups shape is O(distinct keys) Python dispatch)."""
    import ray.data as rd

    from etl_ray.ops.stats import grouped_quantiles

    rng = np.random.default_rng(3)
    n_groups = 50_000
    g = np.repeat(np.arange(n_groups), 4)
    v = rng.standard_normal(len(g))
    # a handful of all-NULL groups → percentile_disc NULL rows
    v[g < 3] = np.nan
    df = pd.DataFrame({"g": [f"k{x:06d}" for x in g], "v": v})
    out = grouped_quantiles(rd.from_pandas(df).repartition(8),
                            col="v", by="g", qs=[0.5, 0.9]).to_pandas()
    assert len(out) == n_groups * 2
    # exact check on a sample of groups against the direct definition
    by_g = df.groupby("g")["v"]
    import math
    for key in ["k000001", "k000123", "k025000", "k049999"]:
        vals = np.sort(by_g.get_group(key).dropna().to_numpy())
        sub = out[out["g"] == key].set_index("q")["value"]
        for q in (0.5, 0.9):
            if len(vals) == 0:
                assert np.isnan(sub[q])
            else:
                exp = vals[max(0, min(len(vals) - 1,
                                      math.ceil(q * len(vals)) - 1))]
                assert sub[q] == exp


def test_curation_drop_via_anti_join_large_droplist(ray_session, tmp_path):
    """The final drop stage is a distributed anti-join — exercised with a
    cluster table big enough that a broadcast set would be unreasonable
    relative to the corpus (every doc but one per cluster dropped)."""
    import ray.data as rd

    from etl_ray.ops.components import dup_clusters
    from etl_ray.ops.joins import anti_join

    n = 20_000
    # 2k clusters of 10 docs each: drop-list = 18k of 20k docs
    pairs = pd.DataFrame({
        "id_a": np.repeat(np.arange(0, n, 10), 9),
        "id_b": np.concatenate(
            [np.arange(s + 1, s + 10) for s in range(0, n, 10)]),
    })
    corpus = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n)}))
    drops = dup_clusters(rd.from_pandas(pairs)).map_batches(
        lambda t: t.filter(pa.compute.invert(t["keep"])).select(["doc_id"]),
        batch_format="pyarrow")
    out = anti_join(corpus, drops, on="doc_id").to_pandas()
    assert sorted(out["doc_id"]) == list(range(0, n, 10))


def test_blob_matrix_reads_arrow_buffers():
    from etl_ray.ops.similarity import _blob_matrix

    M = np.arange(12, dtype="<f8").reshape(3, 4)
    w = 4 * 8
    offs = np.arange(0, (3 + 1) * w, w, dtype=np.int32)
    arr = pa.BinaryArray.from_buffers(
        pa.binary(), 3,
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(M.tobytes())])
    got = _blob_matrix(arr)
    assert np.array_equal(got, M)
    # sliced array (non-zero offset) still decodes the right rows
    assert np.array_equal(_blob_matrix(arr.slice(1, 2)), M[1:3])
    # chunked
    got2 = _blob_matrix(pa.chunked_array([arr, arr.slice(0, 1)]))
    assert np.array_equal(got2, np.vstack([M, M[:1]]))


def test_ivf_partitioned_reads_only_probed_cells(ray_session, tmp_path):
    """ivf_persist lays the corpus out one directory per cell; the
    partitioned query must (a) read strictly fewer bytes than the corpus,
    (b) return exactly what the full-corpus IVF query returns (unprobed
    cells get zero FLOPs either way — pruning the READ cannot change the
    result)."""
    import ray.data as rd

    from etl_ray.ops.similarity import (ivf_build, ivf_persist, ivf_topk,
                                        ivf_topk_partitioned)

    rng = np.random.default_rng(5)
    n, dim = 4000, 16
    M = rng.standard_normal((n, dim)).astype(np.float32)
    flat = pa.array(M.reshape(-1))
    emb = pa.FixedSizeListArray.from_arrays(flat, dim).cast(
        pa.list_(pa.float32()))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)), "embedding": emb,
    })).repartition(4)
    indexed, C = ivf_build(ds, dim=dim, nlist=16, seed=5, concurrency=2)
    root = str(tmp_path / "ivf_lake")
    ivf_persist(indexed, root)
    Q = M[:3].astype(np.float64)
    qids = np.arange(3, dtype=np.int64)
    got, stats = ivf_topk_partitioned(root, qids, Q, centroids=C, k=5,
                                      nprobe=3, concurrency=2)
    assert 0 < stats["cells_probed"] < stats["cells_total"]
    assert 0 < stats["bytes_read"] < stats["bytes_total"]
    exp = ivf_topk(indexed, qids, Q, k=5, nprobe=3, centroids=C,
                   concurrency=2)
    cols = ["query_id", "vec_id", "rank"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        exp[cols].sort_values(cols).reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_scrub_pii_masks_and_counts():
    import ray.data as rd

    from etl_ray.ops.textops import scrub_pii

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail a.b+c@ex.co and b@ex.io from 10.0.0.1 call +1 555-0100",
            "no pii here",
            "ip 256.1.2.3 still matches the dotted-quad shape",
        ], pa.string()),
    }))
    out = scrub_pii(ds).to_pandas().sort_values("doc_id")
    assert out["text_clean"].tolist() == [
        "mail <EMAIL> and <EMAIL> from <IP> call <PHONE>",
        "no pii here",
        "ip <IP> still matches the dotted-quad shape",
    ]
    assert out["n_email"].tolist() == [2, 0, 0]
    assert out["n_ip"].tolist() == [1, 0, 1]
    assert out["n_phone"].tolist() == [1, 0, 0]


@pytest.mark.usefixtures("ray_session")
def test_contamination_flags_exact_shingle_overlap():
    import ray.data as rd

    from etl_ray.ops.dedup import benchmark_shingles, contamination_flags

    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array(["the quick brown fox jumps"], pa.string()),
    }))
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            # shares the 3-gram "quick brown fox" (and one more)
            "a quick brown fox jumps high",
            "totally unrelated text about rayon datasets",
            "",  # empty doc → zero shingles, never contaminated
        ], pa.string()),
    }))
    bh = benchmark_shingles(bench, shingle_n=3)
    assert len(bh) == 3  # 5 words → 3 distinct 3-gram shingles
    out = contamination_flags(corpus, bh, shingle_n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["contaminated"].tolist() == [True, False, False]
    assert out["n_hits"].tolist()[0] == 2  # quick-brown-fox, brown-fox-jumps
    assert out["n_hits"].tolist()[1:] == [0, 0]


@pytest.mark.usefixtures("ray_session")
def test_benchmark_shingles_shuffle_stays_fixed_width_arrow():
    # regression: shuffling raw uint64 hashes (values > 2^63) tripped
    # Ray's groupby reduce into an OverflowError -> pickled-object
    # extension-array fallback. The exchange must carry a plain int64
    # column and the round-trip must preserve every hash bit pattern.
    import ray.data as rd
    from ray.data.aggregate import Count

    from etl_ray.ops.dedup import benchmark_shingles

    texts = [" ".join(f"w{i + j}" for j in range(6)) for i in range(50)]
    bench = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(50), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(4)
    bh = benchmark_shingles(bench, shingle_n=3)
    assert bh.dtype == np.uint64
    assert (bh > np.uint64(1) << np.uint64(63)).any()  # high bit exercised
    assert (np.sort(bh) == bh).all() and len(np.unique(bh)) == len(bh)

    # the exchanged column is a plain Arrow integer, not an extension type
    shuffled = (
        bench.map_batches(
            lambda t: pa.table({"h": pa.array(
                np.arange(len(t), dtype=np.uint64).view(np.int64))}),
            batch_format="pyarrow")
        .groupby("h").aggregate(Count(alias_name="_n"))
    )
    sch = shuffled.schema().base_schema
    assert pa.types.is_integer(sch.field("h").type), sch


@pytest.mark.usefixtures("ray_session")
def test_collect_series_list_null_keys():
    # null keys must get their own (null, 0, []) row like the CSV path,
    # not poison the bucket task with NaN-key casts
    import ray.data as rd

    from etl_ray.ops.windows import collect_series

    t = pa.table({
        "user_id": pa.array([1, 1, None, 2], pa.int64()),
        "ts": pa.array([1, 2, 3, 4], pa.int64()),
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "value": pa.array([1.0, 2.0, 9.0, 3.0], pa.float64()),
    })
    out = (collect_series(rd.from_arrow(t), num_buckets=2, as_list=True)
           .to_pandas())
    out = out.sort_values("user_id", na_position="last").reset_index(
        drop=True)
    assert out["user_id"].tolist()[:2] == [1, 2]
    assert pd.isna(out["user_id"].iloc[2])
    assert list(out["series"].iloc[0]) == [100, 200]
    assert out["n"].iloc[2] == 0 and list(out["series"].iloc[2]) == []


@pytest.mark.usefixtures("ray_session")
def test_collect_series_nulls_in_one_block_only():
    # the bug scenario: multi-block input where only ONE block contains a
    # null key. A pandas tag stage would promote that block's int64 keys
    # to float64 — same key hashing differently per block (misgrouping)
    # and mixed block schemas. The arrow-native tagger must keep key 1's
    # rows together across blocks.
    import ray.data as rd

    from etl_ray.ops.windows import collect_series

    block_a = pa.table({           # no nulls
        "user_id": pa.array([1, 2], pa.int64()),
        "ts": pa.array([1, 1], pa.int64()),
        "event_id": pa.array([1, 2], pa.int64()),
        "value": pa.array([1.0, 5.0], pa.float64()),
    })
    block_b = pa.table({           # null present -> would promote
        "user_id": pa.array([1, None], pa.int64()),
        "ts": pa.array([2, 2], pa.int64()),
        "event_id": pa.array([3, 4], pa.int64()),
        "value": pa.array([2.0, 9.0], pa.float64()),
    })
    ds = rd.from_arrow(block_a).union(rd.from_arrow(block_b))
    out = (collect_series(ds, num_buckets=4, as_list=True).to_pandas()
           .sort_values("user_id", na_position="last")
           .reset_index(drop=True))
    one = out[out.user_id == 1]
    assert len(one) == 1                       # not split across buckets
    assert list(one["series"].iloc[0]) == [100, 200]
