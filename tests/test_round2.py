"""Round-2 hardening: failure-ratio gate, commit byte caps, pruned
merge-on-read, null-handling fixes, multi-key LWW kernel."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload, modulo_part
from etl_ray.lake import read_lake, read_quarantine
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import CommitAborted, replay, replay_once
from etl_ray.sources.generator import generate_changelog
from etl_ray.stages.merge import lww_last_per_keys
from etl_ray.state.manifest import Manifest

VOCAB = 1000


def cfg(**kw):
    kw.setdefault("num_partitions", 8)
    kw.setdefault("max_salt", 4)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def lake_state(lake_dir):
    t = read_lake(lake_dir, include_seq=True).to_pandas()
    return t.sort_values("doc_id").reset_index(drop=True)


def assert_matches_oracle(lake_dir, oracle: pa.Table):
    got = lake_state(lake_dir)
    exp = oracle.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    for g, e in zip(got["tokens"], exp["tokens"]):
        assert list(g) == list(e)
    assert list(got["sequence_number"]) == list(exp["sequence_number"])


# ------------------------------------------------------- failure-ratio gate
@pytest.mark.usefixtures("ray_session")
def test_failure_ratio_gate_aborts_poison_commit(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=500, n_segments=1, seed=31,
                       vocab=VOCAB, corrupt_frac=0.5)
    c = cfg(max_failure_ratio=0.1)
    with pytest.raises(CommitAborted) as ei:
        replay_once(tmp_wal, tmp_lake, c)
    assert ei.value.stats.quarantined > 50
    # manifest NOT flipped: watermark unchanged, nothing committed
    m = Manifest.load(tmp_lake)
    assert m.version == 0
    assert m.applied_through_segment == -1
    # and the aborted commit's deltas and quarantine file are gone
    left = [os.path.join(d, f) for d, _, fs in os.walk(tmp_lake)
            for f in fs if f.endswith(".parquet")]
    assert left == []


@pytest.mark.usefixtures("ray_session")
def test_failure_ratio_gate_passes_below_threshold(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=1000, n_segments=2, seed=32,
                               vocab=VOCAB, corrupt_frac=0.03)
    c = cfg(max_failure_ratio=0.25)
    commits = replay(tmp_wal, tmp_lake, c)
    assert commits and commits[0].quarantined > 0
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


# ----------------------------------------------------------- commit byte cap
@pytest.mark.usefixtures("ray_session")
def test_byte_capped_backlog_splits_commits(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=1200, n_segments=6, seed=33,
                               vocab=VOCAB)
    seg_bytes = os.path.getsize(paths[0])
    # cap ≈ 2 segments per commit → a 6-segment backlog becomes ≥3 commits
    c = cfg(max_bytes_per_commit=int(seg_bytes * 2.5))
    commits = replay(tmp_wal, tmp_lake, c)
    assert len(commits) >= 3
    assert Manifest.load(tmp_lake).applied_through_segment == 5
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


# ----------------------------------------------------- IPC exchange fragments
@pytest.mark.usefixtures("ray_session")
def test_ipc_exchange_same_state_as_parquet(tmp_wal, tmp_lake, tmp_path):
    """Arrow IPC is the only fragment format: a replay whose fragments live
    under the lake and one whose fragments live under an ``exchange_root``
    build the same lake state, quarantine the same corrupt events, and
    match the oracle."""
    paths = generate_changelog(tmp_wal, n_events=1200, n_segments=3, seed=37,
                               vocab=VOCAB, corrupt_frac=0.04)
    replay(tmp_wal, tmp_lake, cfg())
    lake2 = str(tmp_path / "lake_root")
    os.makedirs(lake2)
    replay(tmp_wal, lake2, cfg(exchange_root=str(tmp_path / "x")))
    a, b = lake_state(tmp_lake), lake_state(lake2)
    assert a.equals(b)
    assert len(read_quarantine(tmp_lake)) == len(read_quarantine(lake2)) > 0
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


# -------------------------------------------------------- pruned merge-on-read
@pytest.mark.usefixtures("ray_session")
def test_pruned_read_equals_full_read(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=800, n_segments=2, seed=35,
                       vocab=VOCAB, evolve_at_segment=1)
    replay(tmp_wal, tmp_lake, cfg())
    full = read_lake(tmp_lake).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pruned = read_lake(tmp_lake, columns=["doc_id", "n_tok"]).to_pandas()
    pruned = pruned.sort_values("doc_id").reset_index(drop=True)
    assert list(pruned.columns) == ["doc_id", "n_tok"]
    assert list(pruned["doc_id"]) == list(full["doc_id"])
    assert pruned["n_tok"].fillna(-1).tolist() == full["n_tok"].fillna(
        -1).tolist()
    # evolved column readable alone even though early files lack it
    lang = read_lake(tmp_lake, columns=["doc_id", "lang"]).to_pandas()
    assert set(lang.columns) == {"doc_id", "lang"}
    assert len(lang) == len(full)


# ------------------------------------------------------------- null handling
def test_modulo_part_nulls_route_to_zero():
    ids = pa.array(["7", None, "", "12", "x9"])
    out = modulo_part(ids, 4)
    assert out.tolist() == [3, 0, 0, 0, 0]


@pytest.mark.usefixtures("ray_session")
def test_null_n_tok_is_no_length_claim(tmp_wal, tmp_lake):
    # an upsert with non-null tokens but null n_tok must be APPLIED (matches
    # the oracle), not quarantined as a length mismatch
    t = pa.table({
        "op": ["insert", "insert"],
        "doc_id": ["a", "b"],
        "sequence_number": pa.array([0, 1], pa.int64()),
        "tokens": pa.array([[1, 2, 3], [4, 5]], pa.list_(pa.int32())),
        "n_tok": pa.array([3, None], pa.int32()),
        "source": ["web", "web"],
    })
    p = os.path.join(tmp_wal, "seg-00000.parquet")
    pq.write_table(t, p)
    replay(tmp_wal, tmp_lake, cfg())
    got = lake_state(tmp_lake)
    assert list(got["doc_id"]) == ["a", "b"]
    assert len(read_quarantine(tmp_lake)) == 0
    assert_matches_oracle(tmp_lake, oracle_replay([p], vocab=VOCAB))


# -------------------------------------------------------- multi-key LWW kernel
def test_lww_last_per_keys_matches_bruteforce():
    rng = np.random.default_rng(7)
    n = 500
    t = pa.table({
        "__shard": pa.array(rng.integers(0, 5, n), pa.int64()),
        "doc_id": pa.array([f"d{v}" for v in rng.integers(0, 40, n)]),
        "sequence_number": pa.array(rng.permutation(n).astype(np.int64)),
        "v": pa.array(rng.integers(0, 100, n), pa.int64()),
    })
    got = lww_last_per_keys(t, ["__shard", "doc_id"]).to_pandas()
    exp = (
        t.to_pandas()
        .sort_values("sequence_number")
        .groupby(["__shard", "doc_id"], as_index=False)
        .last()
    )
    got = got.sort_values(["__shard", "doc_id"]).reset_index(drop=True)
    exp = exp.sort_values(["__shard", "doc_id"]).reset_index(drop=True)
    assert got[["__shard", "doc_id", "sequence_number", "v"]].equals(
        exp[["__shard", "doc_id", "sequence_number", "v"]])


# -------------------------------------------------- fragment layout (no storm)
FRAG_TARGET = pa.schema([
    pa.field("op", pa.string()),
    pa.field("doc_id", pa.string()),
    pa.field("sequence_number", pa.int64()),
    pa.field("tokens", pa.list_(pa.int32())),
    pa.field("n_tok", pa.int32()),
    pa.field("source", pa.string()),
])


def frag_events(n, seed, n_docs=200):
    """``n`` valid insert events over ``n_docs`` doc ids."""
    rng = np.random.default_rng(seed)
    toks = [[int(x) for x in rng.integers(0, VOCAB, 4)] for _ in range(n)]
    return pa.table({
        "op": ["insert"] * n,
        "doc_id": [f"doc-{v:06d}" for v in rng.integers(0, n_docs, n)],
        "sequence_number": pa.array(
            rng.permutation(10_000)[:n].astype(np.int64)),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([4] * n, pa.int32()),
        "source": ["web"] * n,
    })


def test_fragment_file_per_batch_row_group_per_bucket(tmp_path):
    """Unit test of the exchange layout: one file per batch, one record
    batch per bucket, empty-batch safe, and stats → descriptors → record
    batch reads round-trip losslessly."""
    import pandas as pd

    from etl_ray.stages.exchange import (FragmentWriter, _shard_bucket,
                                          bucket_descriptors)

    exch = str(tmp_path / "exch")
    n_buckets = 8
    fw = FragmentWriter(cfg(), FRAG_TARGET, frozenset(), exch, n_buckets)

    # empty batch: no file, empty stats (ADVICE round-1 finding)
    out = fw(FRAG_TARGET.empty_table())
    assert len(out) == 0
    assert not os.path.isdir(exch) or not os.listdir(exch)

    stats = [fw(frag_events(300, seed)) for seed in (1, 2, 3)]
    files = {f for s in stats for f in s["file"].to_pylist()}
    assert len(files) == 3  # ONE file per batch — not batch × bucket
    all_stats = pa.concat_tables(stats).to_pandas()
    descs = bucket_descriptors(all_stats, n_buckets)
    assert {d["bucket"] for d in descs} <= set(range(n_buckets))
    # every row lands in exactly the bucket its row group claims
    total = 0
    for d in descs:
        for f, rg in zip(d["files"], d["rgs"]):
            t = pa.ipc.open_file(os.path.join(exch, f)).get_batch(rg)
            shard = t["__shard"].to_numpy(zero_copy_only=False)
            assert (_shard_bucket(shard, n_buckets) == d["bucket"]).all()
            total += len(t)
    assert total == 900


def test_fragment_writer_writes_ipc_batch_per_bucket(tmp_path):
    """Every fragment is an Arrow IPC file whose record batch
    ``row_group`` holds only rows of its stats ``bucket``; quarantined
    rows go alone to a ``-q.arrow`` fragment with ``__reason``, and valid
    fragments carry no ``__reason`` column."""
    from etl_ray.stages.exchange import FragmentWriter, _shard_bucket

    exch = str(tmp_path / "exch")
    n_buckets = 8
    fw = FragmentWriter(cfg(), FRAG_TARGET, frozenset(), exch, n_buckets)
    n = 400
    batch = frag_events(n, 4, n_docs=300)
    seq = batch["sequence_number"].to_numpy().copy()
    seq[::10] = -1  # 40 rows quarantined: negative sequence number
    stats = fw(batch.set_column(2, "sequence_number",
                                pa.array(seq))).to_pylist()
    files = {r["file"] for r in stats}
    assert all(f.endswith(".arrow") for f in files)
    assert sorted(os.listdir(exch)) == sorted(files)
    quarantined = 0
    for r in stats:
        with pa.ipc.open_file(os.path.join(exch, r["file"])) as f:
            t = f.get_batch(r["row_group"])
        assert len(t) == r["rows"]
        if r["file"].endswith("-q.arrow"):
            assert r["bucket"] == n_buckets
            assert "__reason" in t.schema.names
            assert (t["sequence_number"].to_numpy() == -1).all()
            quarantined += len(t)
        else:
            assert "__reason" not in t.schema.names
            shard = t["__shard"].to_numpy().astype(np.int64)
            assert (_shard_bucket(shard, n_buckets) == r["bucket"]).all()
            assert (t["sequence_number"].to_numpy() >= 0).all()
    assert quarantined == 40
    assert sum(r["rows"] for r in stats) == n
    assert sum(f.endswith("-q.arrow") for f in files) == 1


# ------------------------------------------- salting survives compaction
@pytest.mark.usefixtures("ray_session")
def test_salted_parts_survive_compaction(tmp_wal, tmp_lake):
    """ADVICE r01: a compaction commit (no per_partition key) must not
    reset hot-partition salting — the salted-parts lookup scans back to
    the most recent replay commit."""
    from etl_ray.pipelines.compaction import compact
    from etl_ray.pipelines.replay import _salted_parts

    paths = generate_changelog(tmp_wal, n_events=900, n_segments=3, seed=38,
                               vocab=VOCAB)
    c = cfg(salt_threshold=1, max_salt=4)
    replay(tmp_wal, tmp_lake, c, segments_per_commit=1, max_commits=2)
    m = Manifest.load(tmp_lake)
    before = _salted_parts(m, c)
    assert before  # hot partitions flagged after a replay commit
    compact(tmp_lake, c, force=True)
    m2 = Manifest.load(tmp_lake)
    assert m2.record["commit_id"].startswith("compact-")
    assert _salted_parts(m2, c) == before  # unchanged by compaction
    # and the next replay still salts: delta files with salt suffixes > 0
    replay(tmp_wal, tmp_lake, c)
    m3 = Manifest.load(tmp_lake)
    salted_files = [f for p in m3.partitions.values() for f in p.files
                    if "-s1" in f or "-s2" in f or "-s3" in f]
    assert salted_files
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))
