"""Range-sliced sort-merge compaction equals the one-range merge."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines import compaction
from etl_ray.pipelines.compaction import (compact, merge_ranges,
                                          row_group_bounds, split_points)
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest

VOCAB = 500


def _sorted_run(path, rows, **kw):
    t = pa.Table.from_pylist(rows).sort_by(
        [("doc_id", "ascending"), ("sequence_number", "ascending")])
    pq.write_table(t, path, row_group_size=4, **kw)
    return t


def _runs(tmp_path, **kw):
    base_rows = [{"doc_id": f"d{i:04d}", "sequence_number": -1, "v": i,
                  "op": None} for i in range(50)]
    d1_rows = [{"doc_id": f"d{i:04d}", "sequence_number": 100 + i, "v": -i,
                "op": "update"} for i in range(0, 50, 3)]
    d2_rows = (
        [{"doc_id": f"d{i:04d}", "sequence_number": 200 + i, "v": None,
          "op": "delete"} for i in range(0, 50, 7)]
        + [{"doc_id": f"x{i}", "sequence_number": 300 + i, "v": 1000 + i,
            "op": "insert"} for i in range(5)]  # beyond base key range
    )
    paths = []
    for name, rows in [("b.parquet", base_rows), ("d1.parquet", d1_rows),
                       ("d2.parquet", d2_rows)]:
        p = str(tmp_path / name)
        _sorted_run(p, rows, **kw)
        paths.append(p)
    return paths


SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("sequence_number", pa.int64()),
     ("v", pa.int64()), ("op", pa.string())]
)


def _memory_merge(paths):
    return merge_runs([pq.read_table(p) for p in paths], drop_deletes=True,
                      target_schema=SCHEMA).drop_columns(["op"])


def test_streaming_merge_equals_memory(tmp_path):
    paths = _runs(tmp_path)
    files = [pq.ParquetFile(p) for p in paths]
    pts = split_points([x for f in files for x in row_group_bounds(f)], 10)
    assert pts and len(pts) >= 3  # genuinely range-sliced

    parts = list(merge_ranges(files, SCHEMA, 10))
    assert len(parts) > 1
    got = pa.concat_tables(parts)
    # output globally sorted by doc_id, and equal to the whole merge
    ids = got["doc_id"].to_pylist()
    assert ids == sorted(ids)
    assert got.equals(_memory_merge(paths))


def test_input_without_statistics_is_one_range(tmp_path):
    """An input with no doc_id statistics cannot be range-sliced: the
    partition merges as one range, to the same rows."""
    paths = _runs(tmp_path)
    nostats = str(tmp_path / "nostats.parquet")
    pq.write_table(pq.read_table(paths[1]), nostats, row_group_size=4,
                   write_statistics=False)
    paths[1] = nostats
    files = [pq.ParquetFile(p) for p in paths]
    assert row_group_bounds(files[1]) is None
    parts = list(merge_ranges(files, SCHEMA, 10))
    assert len(parts) == 1
    assert parts[0].equals(_memory_merge(paths))


def _replayed_lake(wal, lake):
    paths = generate_changelog(wal, n_events=1500, n_segments=5,
                               n_base_docs=0, seed=31, vocab=VOCAB)
    cfg = EngineConfig(num_partitions=4, max_salt=2, batch_size=256,
                       payload=TokensPayload(vocab_size=VOCAB))
    replay(wal, lake, cfg, segments_per_commit=1)
    return paths, cfg


def _assert_matches_oracle(lake, paths):
    got = read_lake(lake, include_seq=True).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    exp = oracle_replay(paths, vocab=VOCAB).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    for g, e in zip(got["tokens"], exp["tokens"]):
        assert list(g) == list(e)
    assert list(got["sequence_number"]) == list(exp["sequence_number"])


@pytest.mark.usefixtures("ray_session")
def test_compaction_streaming_path_matches_oracle(tmp_wal, tmp_lake,
                                                  monkeypatch):
    paths, cfg = _replayed_lake(tmp_wal, tmp_lake)
    monkeypatch.setattr(compaction, "ROWS_PER_RANGE", 64)
    res = compact(tmp_lake, cfg, force=True)
    assert res["compacted_partitions"] == 4
    m = Manifest.load(tmp_lake)
    assert all(len(p.files) == 1 for p in m.partitions.values())
    _assert_matches_oracle(tmp_lake, paths)


@pytest.mark.usefixtures("ray_session")
def test_multi_range_base_equals_one_range_base(tmp_wal, tmp_lake, tmp_path,
                                                monkeypatch):
    """The same lake compacted in one range and in many: every base holds
    the same rows in the same order."""
    _replayed_lake(tmp_wal, tmp_lake)
    sliced = str(tmp_path / "sliced")
    shutil.copytree(tmp_lake, sliced)
    compact(tmp_lake, force=True)
    monkeypatch.setattr(compaction, "ROWS_PER_RANGE", 64)
    compact(sliced, force=True)
    one, many = Manifest.load(tmp_lake), Manifest.load(sliced)
    assert one.live_files() == many.live_files()
    for rel in one.live_files():
        assert pq.ParquetFile(os.path.join(tmp_lake, rel)) \
            .metadata.num_row_groups == 1
        assert pq.ParquetFile(os.path.join(sliced, rel)) \
            .metadata.num_row_groups > 1
        assert pq.read_table(os.path.join(tmp_lake, rel)).equals(
            pq.read_table(os.path.join(sliced, rel))), rel


@pytest.mark.usefixtures("ray_session")
def test_lake_input_without_statistics_compacts(tmp_wal, tmp_lake,
                                                monkeypatch):
    """A lake file written without statistics makes its partition one
    range even with a low ROWS_PER_RANGE, and the lake still matches the
    oracle."""
    paths, cfg = _replayed_lake(tmp_wal, tmp_lake)
    part = Manifest.load(tmp_lake).partitions[0]
    first = os.path.join(tmp_lake, part.files[0])
    pq.write_table(pq.read_table(first), first, write_statistics=False)
    monkeypatch.setattr(compaction, "ROWS_PER_RANGE", 64)
    compact(tmp_lake, cfg, force=True)
    m = Manifest.load(tmp_lake)
    for k, p in m.partitions.items():
        rgs = pq.ParquetFile(os.path.join(tmp_lake, p.files[0])) \
            .metadata.num_row_groups
        assert (rgs == 1) == (k == 0), (k, rgs)
    _assert_matches_oracle(tmp_lake, paths)
