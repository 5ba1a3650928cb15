"""lake_diff: changelog capture between two committed lake versions must
reproduce exactly the insert/update/delete set that a pure oracle derives
from the two states."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
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
