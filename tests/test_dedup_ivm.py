"""Incremental MinHash signature index (ops/dedup_ivm.py): refresh from
manifest deltas must equal a from-scratch build, touch only dirty
partitions, and re-hash only changed docs."""
import os

import numpy as np
import pandas as pd
import pytest

SF = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def lake(ray_session, tmp_path_factory):
    from etl_ray.config import EngineConfig
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    root = tmp_path_factory.mktemp("sigivm_t")
    wal, lake_dir = str(root / "wal"), str(root / "lake")
    A.docs_to_changelog(SF, wal)
    cfg = EngineConfig(num_partitions=8,
                       payload=A.docs_payload())
    replay(wal, lake_dir, cfg, segments_per_commit=1)  # versions 1..3
    return lake_dir


def _long(lake_dir, name):
    from etl_ray.ops.dedup_ivm import signatures_long

    return (signatures_long(lake_dir, name=name).to_pandas()
            .sort_values(["doc_id", "perm"]).reset_index(drop=True))


def test_incremental_equals_full_rebuild(lake):
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       refresh_signature_index)

    build_signature_index(lake, name="inc", version=1)
    s = refresh_signature_index(lake, name="inc")
    full = build_signature_index(lake, name="full")
    gi, gf = _long(lake, "inc"), _long(lake, "full")
    pd.testing.assert_frame_equal(gi, gf)
    # only the churn was re-hashed: updates (id%5==0, id%7!=0) get new
    # text; deletes drop without hashing; everything else is seq-equal
    docs = pd.read_parquet(os.path.join(SF, "documents.parquet"))
    ids = docs["doc_id"].to_numpy()
    n_upd = int(((ids % 5 == 0) & (ids % 7 != 0)).sum())
    assert s["n_recomputed"] == n_upd
    assert s["n_reused"] == s["n_docs"] - n_upd
    # live set matches the closed-form final state
    assert s["n_docs"] + int((ids % 7 == 0).sum()) == len(ids)


def test_signature_files_use_the_lake_format(lake, assert_lake_format):
    from etl_ray.ops.dedup_ivm import _load_meta, build_signature_index

    build_signature_index(lake, name="fmt")
    files = _load_meta(lake, "fmt")["files"]
    assert files
    for rel in files.values():
        assert "sequence_number" in assert_lake_format(
            os.path.join(lake, rel))


def test_build_and_refresh_plan_no_ray_data(lake, forbid_ray_data,
                                            monkeypatch):
    """Signature build and refresh write the lake's index in plain Ray
    tasks: with Ray Data's entry points patched to raise, both finish."""
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       refresh_signature_index)

    build_signature_index(lake, name="noray", version=1)
    s = refresh_signature_index(lake, name="noray")
    assert s["n_parts_dirty"] > 0 and s["n_recomputed"] > 0
    # the patches are live: reading the index does plan a Ray Data pipeline
    with pytest.raises(AssertionError, match="Ray Data pipeline planned"):
        _long(lake, "noray")
    monkeypatch.undo()
    build_signature_index(lake, name="noray_full")
    pd.testing.assert_frame_equal(_long(lake, "noray"),
                                  _long(lake, "noray_full"))


def test_refresh_is_noop_at_head(lake):
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       refresh_signature_index)

    build_signature_index(lake, name="noop")
    s = refresh_signature_index(lake, name="noop")
    assert s["n_parts_dirty"] == 0 and s["n_recomputed"] == 0


def test_clean_partitions_carried_forward_by_reference(ray_session,
                                                      tmp_path_factory):
    # a commit that touches ONE partition must leave the other partitions'
    # signature files untouched (carried forward, not rewritten)
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.config import EngineConfig
    from etl_ray.ops.dedup_ivm import (_load_meta, build_signature_index,
                                       refresh_signature_index)
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    root = tmp_path_factory.mktemp("sigivm_cf")
    wal, lake_dir = str(root / "wal"), str(root / "lake")
    os.makedirs(wal)
    ids = [str(i) for i in range(64)]
    pq.write_table(pa.table({
        "op": pa.array(["insert"] * 64),
        "doc_id": pa.array(ids, pa.string()),
        "sequence_number": pa.array(range(64), pa.int64()),
        "text": pa.array([f"alpha beta gamma delta {i}" for i in ids]),
    }), os.path.join(wal, "seg-00000.parquet"))
    cfg = EngineConfig(num_partitions=8,
                       payload=A.docs_payload())
    replay(wal, lake_dir, cfg)
    build_signature_index(lake_dir, name="cf")
    v1_files = dict(_load_meta(lake_dir, "cf")["files"])

    # second commit: update a single doc -> exactly one dirty partition
    pq.write_table(pa.table({
        "op": pa.array(["update"]),
        "doc_id": pa.array(["7"], pa.string()),
        "sequence_number": pa.array([1000], pa.int64()),
        "text": pa.array(["epsilon zeta eta theta updated"]),
    }), os.path.join(wal, "seg-00001.parquet"))
    replay(wal, lake_dir, cfg)
    s = refresh_signature_index(lake_dir, name="cf")
    assert s["n_parts_dirty"] == 1
    assert s["n_recomputed"] == 1
    v2_files = _load_meta(lake_dir, "cf")["files"]
    carried = [k for k in v2_files if v2_files[k] == v1_files.get(k)]
    assert len(carried) == len(v2_files) - 1  # all but the dirty one

    # the refreshed doc's signature changed; a carried one did not
    from etl_ray.ops.dedup_ivm import read_signature_index

    sig = read_signature_index(lake_dir, name="cf").to_pandas()
    assert len(sig) == 64
    assert sig.loc[sig.doc_id == "7", "sequence_number"].iloc[0] == 1000


def test_refreshes_keep_only_referenced_signature_files(ray_session,
                                                        tmp_path):
    # each refresh writes a new v<V>/ dir for its dirty partition; the
    # files the new meta no longer references must go, or _views/ grows
    # with every refresh
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.config import EngineConfig
    from etl_ray.ops.dedup_ivm import (_index_dir, _load_meta,
                                       build_signature_index,
                                       refresh_signature_index)
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    wal, lake_dir = str(tmp_path / "wal"), str(tmp_path / "lake")
    os.makedirs(wal)

    def segment(n, ops, ids, seqs, texts):
        pq.write_table(pa.table({
            "op": pa.array(ops),
            "doc_id": pa.array(ids, pa.string()),
            "sequence_number": pa.array(seqs, pa.int64()),
            "text": pa.array(texts),
        }), os.path.join(wal, f"seg-{n:05d}.parquet"))

    ids = [str(i) for i in range(64)]
    segment(0, ["insert"] * 64, ids, range(64),
            [f"alpha beta gamma delta {i}" for i in ids])
    cfg = EngineConfig(num_partitions=8,
                       payload=A.docs_payload())
    replay(wal, lake_dir, cfg)
    build_signature_index(lake_dir, name="sweep")
    for n, doc in enumerate(["7", "12", "7"], start=1):
        segment(n, ["update"], [doc], [1000 + n],
                [f"epsilon zeta eta theta {n}"])
        replay(wal, lake_dir, cfg)
        assert refresh_signature_index(
            lake_dir, name="sweep")["n_parts_dirty"] == 1
        d = _index_dir(lake_dir, "sweep")
        on_disk = {os.path.relpath(os.path.join(root, f), lake_dir)
                   for root, _, fs in os.walk(d) for f in fs
                   if root != d}
        assert on_disk == set(_load_meta(lake_dir, "sweep")["files"].values())
        assert all(os.listdir(os.path.join(d, v)) for v in os.listdir(d)
                   if os.path.isdir(os.path.join(d, v)))
    build_signature_index(lake_dir, name="sweep_fresh")
    pd.testing.assert_frame_equal(_long(lake_dir, "sweep"),
                                  _long(lake_dir, "sweep_fresh"))


def test_signatures_long_matches_blobs(lake):
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       read_signature_index)

    build_signature_index(lake, name="blob")  # own index: order-independent
    wide = read_signature_index(lake, name="blob").to_pandas()
    long = _long(lake, "blob")
    row = wide.iloc[0]
    m = np.frombuffer(row["sig"], dtype="<u8").astype(np.int64)
    got = long[long.doc_id == row["doc_id"]].sort_values("perm")["m"]
    assert got.tolist() == m.tolist()


def test_gc_preserves_signature_index(lake):
    # the index's parquet files live under the lake but are versioned by
    # the index meta, not the manifest — gc/prune must not collect them
    from etl_ray.ops.dedup_ivm import build_signature_index
    from etl_ray.state.manifest import Manifest

    build_signature_index(lake, name="gc")
    m = Manifest.load(lake)
    removed = m.gc()
    assert not any("_views" in p for p in removed)
    before = _long(lake, "gc")
    m.prune(keep_last=1)
    after = _long(lake, "gc")
    pd.testing.assert_frame_equal(before, after)


def test_index_lsh_candidates_equal_fresh_pass(lake):
    # pairs banded from stored signature blobs == pairs from a fresh
    # MinHasher pass over the lake's final text state
    from etl_ray.lake import read_lake
    from etl_ray.ops.dedup import minhash_lsh_candidates
    from etl_ray.ops.dedup_ivm import (build_signature_index,
                                       index_lsh_candidates,
                                       refresh_signature_index)

    # build at head (the earlier prune test retired historical versions);
    # incremental==full equality is already covered above — this test is
    # about banding from stored blobs
    build_signature_index(lake, name="lsh")
    refresh_signature_index(lake, name="lsh")
    got = (index_lsh_candidates(lake, name="lsh").to_pandas()
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    fresh = minhash_lsh_candidates(
        read_lake(lake, columns=["doc_id", "text"])
    ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, fresh)


def test_exact_dedup_tokens_hand_case(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.dedup import exact_dedup_tokens

    t = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d", "e"], pa.string()),
        "tokens": pa.array([[1, 2, 3], [1, 2, 3], [1, 2], [], [1, 2]],
                           pa.list_(pa.int32())),
    })
    out = (exact_dedup_tokens(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == ["a", "c", "d"]
    assert out["n_dups"].tolist() == [2, 2, 1]
    # prefix-shaped sequences must NOT collide ([0,1] vs [1] vs [0,0,1])
    t2 = pa.table({
        "doc_id": pa.array(["p", "q", "r"], pa.string()),
        "tokens": pa.array([[0, 1], [1], [0, 0, 1]], pa.list_(pa.int32())),
    })
    out2 = exact_dedup_tokens(rd.from_arrow(t2)).to_pandas()
    assert len(out2) == 3 and (out2["n_dups"] == 1).all()


def test_exact_dedup_tokens_null_key_beside_colliding_hash(ray_session,
                                                          monkeypatch):
    """A real sequence whose hash equals the one NULL entries get stays
    apart from them: the null key is carried beside the hash."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops import dedup

    fold = dedup._token_fold

    def colliding(lists):
        h, null = fold(lists)
        plant = np.asarray(dedup.pc.list_value_length(lists).fill_null(3)
                           .to_numpy()) == 3
        h[plant] = np.uint64(0xFFFFFFFFFFFFFFFF)  # nulls and every 3-list
        return h, null

    monkeypatch.setattr(dedup, "_token_fold", colliding)
    t = pa.table({
        "doc_id": pa.array(["a", "b", "c", "d", "e"], pa.string()),
        "tokens": pa.array([[1, 2, 3], None, [1, 2, 3], None, [5]],
                           pa.list_(pa.int32())),
    })
    out = (dedup.exact_dedup_tokens(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == ["a", "b", "e"]
    assert out["n_dups"].tolist() == [2, 2, 1]


def test_exact_dedup_tokens_null_entries(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.dedup import exact_dedup_tokens

    t = pa.table({
        "doc_id": pa.array(["a", "b", "c"], pa.string()),
        "tokens": pa.array([None, [], None], pa.list_(pa.int32())),
    })
    out = (exact_dedup_tokens(rd.from_arrow(t)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # nulls group together, distinct from the empty list
    assert out["doc_id"].tolist() == ["a", "b"]
    assert out["n_dups"].tolist() == [2, 1]
