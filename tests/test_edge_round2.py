"""Round-2 edge cases: empty segments, stale exchange leftovers, unicode
doc ids, single-event commits."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 500


def cfg(**kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("batch_size", 128)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def seg_schema():
    return pa.schema([
        pa.field("op", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("sequence_number", pa.int64()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ])


@pytest.mark.usefixtures("ray_session")
def test_empty_segment_between_real_ones(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=300, n_segments=1, seed=51,
                       vocab=VOCAB)
    # a zero-row segment in the middle of the stream
    pq.write_table(seg_schema().empty_table(),
                   os.path.join(tmp_wal, "seg-00001.parquet"))
    generate_changelog(tmp_wal, n_events=300, n_segments=1, seed=52,
                       vocab=VOCAB, start_sequence=300, start_segment=2)
    commits = replay(tmp_wal, tmp_lake, cfg())
    assert Manifest.load(tmp_lake).applied_through_segment == 2
    assert sum(c.events_in for c in commits) == 600
    paths = [os.path.join(tmp_wal, f"seg-{i:05d}.parquet") for i in range(3)]
    exp = oracle_replay(paths, vocab=VOCAB)
    got = read_lake(tmp_lake).to_pandas()
    assert len(got) == len(exp)


@pytest.mark.usefixtures("ray_session")
def test_stale_exchange_dir_from_crashed_attempt(tmp_wal, tmp_lake):
    """Fragments left behind by a crashed attempt of the SAME commit id
    must be wiped, not double-applied."""
    generate_changelog(tmp_wal, n_events=400, n_segments=1, seed=53,
                       vocab=VOCAB)
    c = cfg()
    from etl_ray.stages.exchange import exchange_path

    m = Manifest.load(tmp_lake)
    stale = exchange_path(tmp_lake, m.commit_id, c.exchange_root)
    os.makedirs(stale, exist_ok=True)
    with open(os.path.join(stale, "frag-deadbeef.arrow"), "wb") as f:
        f.write(b"not an arrow file")
    replay(tmp_wal, tmp_lake, c)
    exp = oracle_replay(
        [os.path.join(tmp_wal, "seg-00000.parquet")], vocab=VOCAB)
    got = read_lake(tmp_lake).to_pandas()
    assert len(got) == len(exp)
    assert not os.path.exists(stale)  # cleaned after commit


@pytest.mark.usefixtures("ray_session")
def test_unicode_doc_ids_roundtrip(tmp_wal, tmp_lake):
    ids = ["café-1", "δοκ-2", "文档-3", "doc nbsp", "émoji-🚀"]
    t = pa.table({
        "op": ["insert"] * 5,
        "doc_id": ids,
        "sequence_number": pa.array(range(5), pa.int64()),
        "tokens": pa.array([[1, 2]] * 5, pa.list_(pa.int32())),
        "n_tok": pa.array([2] * 5, pa.int32()),
        "source": ["web"] * 5,
    })
    p = os.path.join(tmp_wal, "seg-00000.parquet")
    pq.write_table(t, p)
    replay(tmp_wal, tmp_lake, cfg())
    got = read_lake(tmp_lake).to_pandas()
    assert sorted(got["doc_id"]) == sorted(ids)
    exp = oracle_replay([p], vocab=VOCAB)
    assert sorted(got["doc_id"]) == sorted(exp["doc_id"].to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_single_event_commit_and_ipc(tmp_wal, tmp_lake):
    t = pa.table({
        "op": ["insert"],
        "doc_id": ["only"],
        "sequence_number": pa.array([0], pa.int64()),
        "tokens": pa.array([[7]], pa.list_(pa.int32())),
        "n_tok": pa.array([1], pa.int32()),
        "source": ["web"],
    })
    pq.write_table(t, os.path.join(tmp_wal, "seg-00000.parquet"))
    replay(tmp_wal, tmp_lake, cfg())
    got = read_lake(tmp_lake).to_pandas()
    assert list(got["doc_id"]) == ["only"]
    assert list(got["tokens"][0]) == [7]
