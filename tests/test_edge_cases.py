"""Edge cases: all-invalid segments, column-pruned reads, empty compaction."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake, read_quarantine
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 500


def cfg(**kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("max_salt", 2)
    kw.setdefault("batch_size", 128)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


@pytest.mark.usefixtures("ray_session")
def test_all_events_quarantined(tmp_wal, tmp_lake):
    """A poison segment (every row invalid) must commit: watermark advances,
    quarantine holds every row, no data files are written — so retries can't
    loop forever on it."""
    t = pa.table(
        {
            "op": pa.array(["bogus"] * 50),
            "doc_id": pa.array([f"d{i}" for i in range(50)]),
            "sequence_number": pa.array(range(50), pa.int64()),
            "tokens": pa.array([[1, 2]] * 50, pa.list_(pa.int32())),
            "n_tok": pa.array([2] * 50, pa.int32()),
            "source": pa.array(["web"] * 50),
        }
    )
    import os

    os.makedirs(tmp_wal, exist_ok=True)
    pq.write_table(t, f"{tmp_wal}/seg-00000.parquet")
    commits = replay(tmp_wal, tmp_lake, cfg())
    assert len(commits) == 1
    assert commits[0].quarantined == 50 and commits[0].valid == 0
    m = Manifest.load(tmp_lake)
    assert m.applied_through_segment == 0
    assert not m.live_files()
    assert len(read_quarantine(tmp_lake)) == 50
    # replay does not retry the poison segment
    assert replay(tmp_wal, tmp_lake, cfg()) == []


@pytest.mark.usefixtures("ray_session")
def test_read_lake_column_pruning(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=300, n_segments=1, n_base_docs=0,
                       seed=41, vocab=VOCAB)
    replay(tmp_wal, tmp_lake, cfg())
    df = read_lake(tmp_lake, columns=["doc_id", "n_tok"]).to_pandas()
    assert list(df.columns) == ["doc_id", "n_tok"]
    assert len(df) > 0


@pytest.mark.usefixtures("ray_session")
def test_compact_empty_lake(tmp_lake):
    res = compact(tmp_lake, cfg())
    assert res == {"compacted_partitions": 0, "rows": 0, "promoted": 0,
                   "minor": 0, "major": 0, "bytes_written": 0}


@pytest.mark.usefixtures("ray_session")
def test_replay_segment_gap_applies_in_order(tmp_wal, tmp_lake):
    """Non-contiguous segment numbers (sampling / pruned WAL) still apply in
    order and the watermark lands on the highest applied number."""
    generate_changelog(tmp_wal, n_events=200, n_segments=2, n_base_docs=0,
                       seed=42, vocab=VOCAB)
    generate_changelog(tmp_wal, n_events=100, n_segments=1, n_base_docs=0,
                       seed=43, vocab=VOCAB, start_sequence=200,
                       start_segment=7)
    commits = replay(tmp_wal, tmp_lake, cfg())
    assert commits[0].segments == [0, 1, 7]
    assert Manifest.load(tmp_lake).applied_through_segment == 7
