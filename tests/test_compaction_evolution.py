"""Compaction (LSM delta+base merge) and schema evolution (column add /
int widen mid-changelog, FIXTURES.md F3)."""

import pyarrow as pa
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 1000


def cfg(**kw):
    kw.setdefault("num_partitions", 8)
    kw.setdefault("max_salt", 4)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def lake_df(lake_dir, **kw):
    return (
        read_lake(lake_dir, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def assert_same_state(lake_dir, oracle: pa.Table):
    got = lake_df(lake_dir, include_seq=True)
    exp = oracle.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    for g, e in zip(got["tokens"], exp["tokens"]):
        assert list(g) == list(e)


@pytest.mark.usefixtures("ray_session")
def test_compaction_preserves_state_and_swaps_files(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=1600, n_segments=8,
                               n_base_docs=0, seed=21, vocab=VOCAB)
    c = cfg()
    replay(tmp_wal, tmp_lake, c, segments_per_commit=1)  # 8 deltas/partition
    before = lake_df(tmp_lake, include_seq=True)
    m = Manifest.load(tmp_lake)
    assert all(len(p.files) == 8 for p in m.partitions.values() if p.files)

    res = compact(tmp_lake, c)
    assert res["compacted_partitions"] == 8
    m2 = Manifest.load(tmp_lake)
    assert all(len(p.files) == 1 for p in m2.partitions.values() if p.files)
    assert all("base-g" in p.files[0] for p in m2.partitions.values() if p.files)
    after = lake_df(tmp_lake, include_seq=True)
    assert before.equals(after)
    assert_same_state(tmp_lake, oracle_replay(paths, vocab=VOCAB))
    # compaction dropped tombstones: no op column, no delete rows in files
    # and orphan deltas are GC-able
    # gc alone keeps superseded deltas (still referenced by historical
    # manifest versions — time travel); prune retires them (VACUUM analog)
    assert m2.gc() == []
    removed = Manifest.load(tmp_lake).prune(keep_last=1)
    assert removed and all("delta-" in f or "base-g" in f for f in removed)
    assert before.equals(lake_df(tmp_lake, include_seq=True))


@pytest.mark.usefixtures("ray_session")
def test_replay_after_compaction_continues(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=900, n_segments=3,
                       n_base_docs=0, seed=22, vocab=VOCAB)
    c = cfg()
    replay(tmp_wal, tmp_lake, c, segments_per_commit=1)
    compact(tmp_lake, c, force=True)
    # more WAL arrives after compaction
    paths_all = generate_changelog(tmp_wal, n_events=900, n_segments=3,
                                   n_base_docs=0, seed=22, vocab=VOCAB)
    paths_all += generate_changelog(
        tmp_wal, n_events=600, n_segments=2, n_base_docs=0, seed=23,
        vocab=VOCAB, start_sequence=900, start_segment=3)
    commits = replay(tmp_wal, tmp_lake, c)
    assert commits and commits[0].segments == [3, 4]
    assert_same_state(tmp_lake, oracle_replay(sorted(set(paths_all)),
                                              vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_schema_evolution_add_and_widen(tmp_wal, tmp_lake):
    # segments 0-1 original schema; 2-3 add `lang` and widen n_tok→int64
    paths = generate_changelog(tmp_wal, n_events=1200, n_segments=4,
                               n_base_docs=0, seed=24, vocab=VOCAB,
                               evolve_at_segment=2)
    c = cfg()
    # apply pre-evolution commits first so the lake has old-schema files
    replay(tmp_wal, tmp_lake, c, segments_per_commit=2)
    m = Manifest.load(tmp_lake)
    sch = m.schema
    assert "lang" in sch.names
    assert sch.field("n_tok").type == pa.int64()

    df = lake_df(tmp_lake, include_seq=True)
    assert "lang" in df.columns
    # pre-evolution winners read back with lang null; post-evolution rows set
    pre = df[df["sequence_number"] < 600]
    post = df[df["sequence_number"] >= 600]
    assert pre["lang"].isna().all()
    assert post["lang"].notna().any()
    assert_same_state(tmp_lake, oracle_replay(paths, vocab=VOCAB))
    # compaction under the evolved schema keeps state
    before = lake_df(tmp_lake, include_seq=True)
    compact(tmp_lake, c, force=True)
    assert before.equals(lake_df(tmp_lake, include_seq=True))
