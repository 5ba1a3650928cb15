import numpy as np
import pyarrow as pa

from etl_ray.config import (
    QUARANTINE_SHARD,
    EngineConfig,
    TokensPayload,
    hashed_part,
)
from etl_ray.stages.merge import drop_tombstones, lww_last_per_keys, merge_runs
from etl_ray.stages.validate import Validator, split_quarantine


def _tbl(rows):
    return pa.Table.from_pylist(rows)


def test_lww_keeps_max_seq_per_doc():
    t = _tbl(
        [
            {"doc_id": "a", "sequence_number": 1, "v": 10},
            {"doc_id": "b", "sequence_number": 2, "v": 20},
            {"doc_id": "a", "sequence_number": 5, "v": 11},
            {"doc_id": "a", "sequence_number": 3, "v": 12},
        ]
    )
    out = lww_last_per_keys(t, ["doc_id"])
    assert out.num_rows == 2
    d = {r["doc_id"]: r for r in out.to_pylist()}
    assert d["a"]["sequence_number"] == 5 and d["a"]["v"] == 11
    assert d["b"]["v"] == 20
    # output sorted by doc_id (on-disk run order)
    assert out["doc_id"].to_pylist() == sorted(out["doc_id"].to_pylist())


def test_merge_runs_delete_and_reinsert():
    base = _tbl(
        [
            {"doc_id": "a", "sequence_number": -1, "v": 1},
            {"doc_id": "b", "sequence_number": -1, "v": 2},
        ]
    )
    d1 = _tbl(
        [
            {"doc_id": "a", "sequence_number": 3, "v": None, "op": "delete"},
            {"doc_id": "c", "sequence_number": 4, "v": 9, "op": "insert"},
        ]
    )
    d2 = _tbl([{"doc_id": "a", "sequence_number": 7, "v": 5, "op": "insert"}])
    target = pa.schema(
        [("doc_id", pa.string()), ("sequence_number", pa.int64()),
         ("v", pa.int64()), ("op", pa.string())]
    )
    out = merge_runs([base, d1, d2], drop_deletes=True, target_schema=target)
    d = {r["doc_id"]: r["v"] for r in out.to_pylist()}
    assert d == {"a": 5, "b": 2, "c": 9}
    # without d2 the delete wins
    out2 = merge_runs([base, d1], drop_deletes=True, target_schema=target)
    assert {r["doc_id"] for r in out2.to_pylist()} == {"b", "c"}


def test_empty_merge():
    t = pa.table({"doc_id": pa.array([], pa.string()),
                  "sequence_number": pa.array([], pa.int64())})
    assert lww_last_per_keys(t, ["doc_id"]).num_rows == 0
    assert drop_tombstones(t).num_rows == 0


def _events(rows):
    schema = pa.schema(
        [
            ("op", pa.string()),
            ("doc_id", pa.string()),
            ("sequence_number", pa.int64()),
            ("tokens", pa.list_(pa.int32())),
            ("n_tok", pa.int32()),
            ("source", pa.string()),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def test_validator_routes_and_reasons():
    cfg = EngineConfig(num_partitions=4, max_salt=2,
                       payload=TokensPayload(vocab_size=100))
    t = _events(
        [
            {"op": "insert", "doc_id": "a", "sequence_number": 1,
             "tokens": [1, 2], "n_tok": 2, "source": "web"},
            {"op": "bogus", "doc_id": "b", "sequence_number": 2,
             "tokens": [1], "n_tok": 1, "source": "web"},
            {"op": "insert", "doc_id": None, "sequence_number": 3,
             "tokens": [1], "n_tok": 1, "source": "web"},
            {"op": "update", "doc_id": "d", "sequence_number": -4,
             "tokens": [1], "n_tok": 1, "source": "web"},
            {"op": "update", "doc_id": "e", "sequence_number": 5,
             "tokens": [1, 2, 3], "n_tok": 2, "source": "web"},
            {"op": "insert", "doc_id": "f", "sequence_number": 6,
             "tokens": [99, 105], "n_tok": 2, "source": "web"},
            {"op": "delete", "doc_id": "g", "sequence_number": 7,
             "tokens": None, "n_tok": None, "source": None},
            {"op": "insert", "doc_id": "h", "sequence_number": 8,
             "tokens": None, "n_tok": None, "source": "web"},
        ]
    )
    v = Validator(cfg, t.schema)
    out = v(t)
    valid, quar = split_quarantine(out)
    assert set(valid["doc_id"].to_pylist()) == {"a", "g"}
    reasons = {r["doc_id"]: r["__reason"] for r in quar.to_pylist()}
    assert reasons["b"] == "unknown op"
    assert reasons[None] == "bad doc_id"
    assert reasons["d"] == "bad sequence_number"
    assert reasons["e"] == "n_tok != len(tokens)"
    assert reasons["f"] == "token out of vocab"
    assert reasons["h"] == "null tokens for upsert"
    assert all(s == QUARANTINE_SHARD for s in quar["__shard"].to_pylist())
    # valid rows route to shard = part*max_salt (salt 0 when unsalted)
    part_a = hashed_part(pa.array(["a"]), 4)[0]
    row_a = [r for r in valid.to_pylist() if r["doc_id"] == "a"][0]
    assert row_a["__shard"] == part_a * 2


def test_validator_salting_splits_by_seq():
    cfg = EngineConfig(num_partitions=1, max_salt=4,
                       payload=TokensPayload(vocab_size=100))
    rows = [
        {"op": "insert", "doc_id": "hot", "sequence_number": i,
         "tokens": [1], "n_tok": 1, "source": "web"}
        for i in range(8)
    ]
    t = _events(rows)
    out = Validator(cfg, t.schema, salted_parts=frozenset({0}))(t)
    shards = set(out["__shard"].to_pylist())
    assert shards == {0, 1, 2, 3}
