"""Stage 2's apply, in process: ``ApplyShards`` counts every event of a
shard as ``rows_in``, writes its LWW winners (``rows_out``) as one
doc-sorted delta per shard, and writes a quarantine block whole, in
sequence order."""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.config import QUARANTINE_SHARD, EngineConfig
from etl_ray.stages.apply import ApplyShards

SCHEMA = pa.schema([
    pa.field("op", pa.string()),
    pa.field("doc_id", pa.string()),
    pa.field("sequence_number", pa.int64()),
    pa.field("n_tok", pa.int32()),
    pa.field("__shard", pa.int64()),
])


def _events(rows, schema=SCHEMA):
    return pa.Table.from_pylist(
        [dict(zip(schema.names, r)) for r in rows], schema=schema)


def test_apply_shards_counts_events_and_writes_winners(tmp_path):
    lake = str(tmp_path / "lake")
    # two chunks, as a bucket of two fragment batches arrives; shard 0 is
    # (part 0, salt 0) and shard 5 is (part 1, salt 1) at max_salt 4
    block = pa.concat_tables([
        _events([("insert", "d1", 1, 10, 0), ("insert", "d3", 2, 30, 5),
                 ("update", "d1", 5, 11, 0), ("insert", "d2", 3, 20, 0)]),
        _events([("update", "d1", 4, 12, 0), ("delete", "d3", 7, None, 5),
                 ("insert", "d4", 6, 40, 5)]),
    ])
    stats = ApplyShards(lake, "c000007", EngineConfig(max_salt=4))(block)
    rows = {r["shard"]: r for r in stats.to_pylist()}
    assert set(rows) == {0, 5}
    assert (rows[0]["part"], rows[0]["rows_in"], rows[0]["rows_out"],
            rows[0]["deletes"], rows[0]["max_seq"]) == (0, 4, 2, 0, 5)
    assert (rows[5]["part"], rows[5]["rows_in"], rows[5]["rows_out"],
            rows[5]["deletes"], rows[5]["max_seq"]) == (1, 3, 2, 1, 7)
    assert rows[0]["file"] == os.path.join("part=0",
                                           "delta-c000007-p0-s0.parquet")
    assert rows[5]["file"] == os.path.join("part=1",
                                           "delta-c000007-p1-s1.parquet")
    d0 = pq.read_table(os.path.join(lake, rows[0]["file"]))
    assert d0.column_names == ["op", "doc_id", "sequence_number", "n_tok"]
    assert d0.to_pylist() == [
        {"op": "update", "doc_id": "d1", "sequence_number": 5, "n_tok": 11},
        {"op": "insert", "doc_id": "d2", "sequence_number": 3, "n_tok": 20},
    ]
    d5 = pq.read_table(os.path.join(lake, rows[5]["file"]))
    assert d5.to_pylist() == [
        {"op": "delete", "doc_id": "d3", "sequence_number": 7,
         "n_tok": None},
        {"op": "insert", "doc_id": "d4", "sequence_number": 6, "n_tok": 40},
    ]
    written = sorted(os.path.relpath(os.path.join(d, f), lake)
                     for d, _, fs in os.walk(lake) for f in fs)
    assert written == sorted([rows[0]["file"], rows[5]["file"]])


def test_apply_shards_quarantine_block_written_whole(tmp_path):
    lake = str(tmp_path / "lake")
    schema = SCHEMA.append(pa.field("__reason", pa.string()))
    q = QUARANTINE_SHARD
    block = _events([("update", "d1", 9, 1, q, "bad_tokens"),
                     ("update", "d1", 8, 1, q, "bad_tokens"),
                     ("bogus", "d2", 3, 2, q, "bad_op")], schema)
    stats = ApplyShards(lake, "c000002", EngineConfig(max_salt=4))(block)
    assert stats.to_pylist() == [{
        "shard": q, "part": -1, "rows_in": 3, "rows_out": 3, "deletes": 0,
        "max_seq": -1, "file": os.path.join("_quarantine", "c000002.parquet"),
        "wall_sec": stats["wall_sec"][0].as_py()}]
    out = pq.read_table(os.path.join(lake, "_quarantine", "c000002.parquet"))
    assert out.column_names == ["op", "doc_id", "sequence_number", "n_tok",
                                "__reason"]
    # every poison event, repeated doc_ids included, in sequence order
    assert out["sequence_number"].to_pylist() == [3, 8, 9]
    assert out["__reason"].to_pylist() == ["bad_op", "bad_tokens",
                                           "bad_tokens"]
    assert os.listdir(lake) == ["_quarantine"]
