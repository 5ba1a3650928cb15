"""lake_diff: changelog capture between two committed lake versions must
reproduce exactly the insert/update/delete set that a pure oracle derives
from the two states."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.ops.cdc_diff import lake_diff
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import bootstrap, replay
from etl_ray.sources.generator import generate_base, generate_changelog

VOCAB = 500


def _collect(ds) -> pd.DataFrame:
    """to_pandas without Ray's TensorArray cast (tokens mixes ndarrays and
    None on delete rows, which that cast rejects)."""
    import ray

    tabs = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tabs, promote_options="default").to_pandas()


def _oracle_diff(state_a, state_b):
    a = state_a.to_pandas()
    b = state_b.to_pandas()
    for f in (a, b):
        if "sequence_number" not in f.columns:
            f["sequence_number"] = -1  # bootstrap convention
    a = a[["doc_id", "sequence_number"]]
    b = b[["doc_id", "sequence_number"]]
    j = b.merge(a, on="doc_id", how="outer", suffixes=("_b", "_a"),
                indicator=True)
    ops = {}
    for _, r in j.iterrows():
        if r["_merge"] == "left_only":
            ops[r["doc_id"]] = "insert"
        elif r["_merge"] == "right_only":
            ops[r["doc_id"]] = "delete"
        elif r["sequence_number_a"] != r["sequence_number_b"]:
            ops[r["doc_id"]] = "update"
    return ops


@pytest.mark.usefixtures("ray_session")
def test_lake_diff_matches_oracle(tmp_path):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    base_path = str(tmp_path / "base.parquet")
    base = generate_base(base_path, n_docs=120, seed=5, vocab=VOCAB)
    paths = generate_changelog(wal, n_events=900, n_segments=4,
                               n_base_docs=120, seed=6, vocab=VOCAB)
    cfg = EngineConfig(num_partitions=4,
                       payload=TokensPayload(vocab_size=VOCAB))
    bootstrap(base_path, lake, cfg)          # version 1
    replay(wal, lake, cfg, segments_per_commit=2)  # versions 2, 3

    s_mid = oracle_replay(paths[:2], base_table=base, vocab=VOCAB)
    s_end = oracle_replay(paths, base_table=base, vocab=VOCAB)

    # bootstrap -> final
    d = _collect(lake_diff(lake, from_version=1))
    exp = _oracle_diff(base, s_end)
    got = dict(zip(d["doc_id"], d["change_op"]))
    assert got == exp
    # mid -> final
    d2 = _collect(lake_diff(lake, from_version=2, to_version=3))
    exp2 = _oracle_diff(s_mid, s_end)
    got2 = dict(zip(d2["doc_id"], d2["change_op"]))
    assert got2 == exp2
    assert len(d2) == len(d2["doc_id"].unique())
    # payload on non-deletes equals the final state's tokens; deletes null
    e = s_end.to_pandas().set_index("doc_id")
    for r in d2.itertuples(index=False):
        if r.change_op == "delete":
            assert r.tokens is None and np.isnan(r.sequence_number)
        else:
            assert np.array_equal(np.asarray(r.tokens),
                                  np.asarray(e.loc[r.doc_id, "tokens"]))
            assert r.sequence_number == e.loc[r.doc_id, "sequence_number"]
    # identical versions diff to nothing
    assert len(_collect(lake_diff(lake, from_version=3, to_version=3))) == 0


@pytest.mark.usefixtures("ray_session")
def test_lake_diff_sees_schema_evolution(tmp_path):
    """A column added between the two versions appears on insert/update
    rows (null for docs that predate it)."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    paths = generate_changelog(wal, n_events=400, n_segments=2, seed=9,
                               vocab=VOCAB, evolve_at_segment=1)
    cfg = EngineConfig(num_partitions=4,
                       payload=TokensPayload(vocab_size=VOCAB))
    replay(wal, lake, cfg, segments_per_commit=1)
    d = _collect(lake_diff(lake, from_version=1, to_version=2))
    assert "lang" in d.columns
    assert d.loc[d["change_op"] != "delete", "lang"].notna().any()


@pytest.mark.usefixtures("ray_session")
def test_lake_diff_reads_only_changed_partitions(tmp_path, monkeypatch):
    """A partition whose file list is the same at both versions holds no
    change and is never diffed. A diff with nothing to read is empty but
    carries every column of a non-empty one, ``old_<col>`` included; so
    is the diff across a commit that only quarantined events, and a view
    refreshed across that commit stays as built."""
    from etl_ray.ops import cdc_diff
    from etl_ray.ops.ivm import ViewSpec, build_view, refresh_view
    from etl_ray.state.manifest import Manifest

    class ChangedOnly(cdc_diff.DiffPartition):
        def __call__(self, batch):
            for row in batch.to_pylist():
                assert row["files_from"] != row["files_to"], row["part"]
            return super().__call__(batch)

    monkeypatch.setattr(cdc_diff, "DiffPartition", ChangedOnly)
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    paths = generate_changelog(wal, n_events=600, n_segments=2, seed=31,
                               vocab=VOCAB)
    # three events touch at most three of the eight partitions
    paths += generate_changelog(wal, n_events=3, n_segments=1, seed=32,
                                vocab=VOCAB, n_base_docs=600,
                                start_segment=2, start_sequence=10_000)
    cfg = EngineConfig(num_partitions=8,
                       payload=TokensPayload(vocab_size=VOCAB))
    replay(wal, lake, cfg, segments_per_commit=1)  # versions 1, 2, 3
    m2, m3 = (Manifest.load(lake, version=v) for v in (2, 3))
    assert any(m2.partitions[k].files == m3.partitions[k].files
               for k in m3.partitions)
    old = ["source", "n_tok"]
    d = _collect(lake_diff(lake, from_version=2, to_version=3,
                           include_old=old))
    exp = _oracle_diff(oracle_replay(paths[:2], vocab=VOCAB),
                       oracle_replay(paths, vocab=VOCAB))
    assert dict(zip(d["doc_id"], d["change_op"])) == exp != {}
    cols = list(d.columns)
    assert {"old_source", "old_n_tok"} <= set(cols)

    same = _collect(lake_diff(lake, from_version=3, to_version=3,
                              include_old=old))
    assert len(same) == 0 and list(same.columns) == cols
    # version 0 has no schema: nothing to diff, the control columns only
    empty = _collect(lake_diff(lake, from_version=0, to_version=0))
    assert len(empty) == 0 and list(empty.columns) == cols[:3]

    spec = ViewSpec(name="by_source", group_col="source",
                    sum_cols=(("sum_n_tok", "n_tok", 1),))
    built = build_view(lake, spec)
    # a segment of negative sequence numbers: every event is quarantined
    (seg,) = generate_changelog(wal, n_events=20, n_segments=1, seed=33,
                                vocab=VOCAB, start_segment=3)
    t = pq.read_table(seg)
    i = t.schema.get_field_index("sequence_number")
    pq.write_table(t.set_column(i, "sequence_number", pa.array(
        [-1 - s for s in t["sequence_number"].to_pylist()], pa.int64())), seg)
    (cs,) = replay(wal, lake, cfg)                 # version 4
    assert cs.quarantined == cs.events_in == 20
    q = _collect(lake_diff(lake, from_version=3, to_version=4,
                           include_old=old))
    assert len(q) == 0 and list(q.columns) == cols
    pd.testing.assert_frame_equal(refresh_view(lake, spec), built)


def test_diff_partition_against_schemaless_version_0(tmp_path):
    """A version-0 manifest has no schema and no files: a diff from it
    inserts every live row, and one back to it deletes every row."""
    from etl_ray.lake import write_file
    from etl_ray.ops.cdc_diff import DiffPartition
    from etl_ray.schema import schema_to_hex

    lake = str(tmp_path / "lake")
    s = pa.schema([("op", pa.string()), ("doc_id", pa.string()),
                   ("sequence_number", pa.int64()), ("n_tok", pa.int32())])
    os.makedirs(os.path.join(lake, "part=0"))
    write_file(pa.table({"op": ["insert", "insert"], "doc_id": ["a", "b"],
                         "sequence_number": [1, 2], "n_tok": [3, 4]},
                        schema=s),
               os.path.join(lake, "part=0", "delta.parquet"))
    files = ["part=0/delta.parquet"]

    def diff(hex_from, hex_to, files_from, files_to):
        dp = DiffPartition(lake, hex_from, hex_to, include_old=["n_tok"])
        return dp(pa.Table.from_pylist([{"part": 0, "files_from": files_from,
                                         "files_to": files_to}])).to_pylist()

    assert diff(None, schema_to_hex(s), [], files) == [
        {"doc_id": d, "change_op": "insert", "sequence_number": q,
         "n_tok": n, "old_n_tok": None}
        for d, q, n in (("a", 1.0, 3.0), ("b", 2.0, 4.0))]
    assert diff(schema_to_hex(s), None, files, []) == [
        {"doc_id": d, "change_op": "delete", "sequence_number": None,
         "n_tok": None, "old_n_tok": n} for d, n in (("a", 3.0), ("b", 4.0))]
