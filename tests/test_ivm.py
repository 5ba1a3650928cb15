"""Incremental view maintenance: a grouped aggregate refreshed from
lake_diff change deltas must be bit-equal to a full recompute over the
final lake state (counts and exact scaled-integer sums), including group
membership changes on update and retraction on delete."""

import os

import pandas as pd
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.ops.ivm import ViewSpec, build_view, read_view, refresh_view
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import bootstrap, replay
from etl_ray.sources.generator import generate_base, generate_changelog

VOCAB = 500

SPEC = ViewSpec(name="by_source", group_col="source",
                sum_cols=(("sum_n_tok", "n_tok", 1),))


def _expected(state) -> pd.DataFrame:
    df = state.to_pandas()
    out = (
        df.groupby("source", as_index=False)
        .agg(n_docs=("doc_id", "size"), sum_n_tok=("n_tok", "sum"))
        .sort_values("source")
        .reset_index(drop=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_n_tok"] = out["sum_n_tok"].astype("int64")
    return out


def _norm(view: pd.DataFrame) -> pd.DataFrame:
    v = view.sort_values("source").reset_index(drop=True)
    v["n_docs"] = v["n_docs"].astype("int64")
    v["sum_n_tok"] = v["sum_n_tok"].astype("int64")
    return v[["source", "n_docs", "sum_n_tok"]]


@pytest.mark.usefixtures("ray_session")
def test_ivm_refresh_equals_recompute(tmp_path):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    base_path = str(tmp_path / "base.parquet")
    base = generate_base(base_path, n_docs=150, seed=11, vocab=VOCAB)
    paths = generate_changelog(wal, n_events=1200, n_segments=4,
                               n_base_docs=150, seed=12, vocab=VOCAB)
    cfg = EngineConfig(num_partitions=4,
                       payload=TokensPayload(vocab_size=VOCAB))
    bootstrap(base_path, lake, cfg)                      # version 1

    # full build at the bootstrap version matches a direct groupby
    v1 = build_view(lake, SPEC, version=1)
    pd.testing.assert_frame_equal(_norm(v1), _expected(base))

    replay(wal, lake, cfg, segments_per_commit=2)        # versions 2, 3

    # incremental refresh (v1 -> v3, through updates/deletes/group moves)
    v3 = refresh_view(lake, SPEC)
    final = oracle_replay(paths, base_table=base, vocab=VOCAB)
    pd.testing.assert_frame_equal(_norm(v3), _expected(final))

    # refresh at head is a no-op read
    again = refresh_view(lake, SPEC)
    pd.testing.assert_frame_equal(_norm(again), _norm(v3))

    # the view state advanced its as-of marker to the lake head
    import json
    with open(os.path.join(lake, "_views", "by_source", "meta.json")) as f:
        assert json.load(f)["as_of_version"] == 3

    # a cold consumer (no prior state) falls back to a full build and
    # lands on the identical answer
    lake2 = str(tmp_path / "lake2")
    bootstrap(base_path, lake2, cfg)
    replay(wal, lake2, cfg, segments_per_commit=2)
    cold = refresh_view(lake2, SPEC)
    pd.testing.assert_frame_equal(_norm(cold), _norm(v3))


@pytest.mark.usefixtures("ray_session")
def test_ivm_multi_step_refresh(tmp_path):
    """Refreshing once per commit and refreshing once across many commits
    reach the same state (delta folding is associative)."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    base_path = str(tmp_path / "base.parquet")
    generate_base(base_path, n_docs=80, seed=21, vocab=VOCAB)
    generate_changelog(wal, n_events=600, n_segments=3,
                       n_base_docs=80, seed=22, vocab=VOCAB)
    cfg = EngineConfig(num_partitions=4,
                       payload=TokensPayload(vocab_size=VOCAB))
    bootstrap(base_path, lake, cfg)
    build_view(lake, SPEC)
    stepped = None
    for _ in range(3):                                    # one commit each
        replay(wal, lake, cfg, segments_per_commit=1, max_commits=1)
        stepped = refresh_view(lake, SPEC)
    onego = build_view(lake, SPEC)                        # full recompute
    pd.testing.assert_frame_equal(_norm(stepped), _norm(onego))
    assert read_view(lake, SPEC) is not None


@pytest.mark.usefixtures("ray_session")
def test_ivm_view_built_on_empty_lake_refreshes(tmp_path):
    """A view built before the first commit advances like any other: the
    empty version-0 lake's default partition count does not block the
    diff to the first commit's count."""
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    os.makedirs(lake)
    paths = generate_changelog(wal, n_events=400, n_segments=2, seed=41,
                               vocab=VOCAB)
    cfg = EngineConfig(num_partitions=4,
                       payload=TokensPayload(vocab_size=VOCAB))
    assert len(build_view(lake, SPEC)) == 0                # version 0
    for _ in range(2):                                     # versions 1, 2
        replay(wal, lake, cfg, segments_per_commit=1, max_commits=1)
        stepped = refresh_view(lake, SPEC)
    pd.testing.assert_frame_equal(
        _norm(stepped), _expected(oracle_replay(paths, vocab=VOCAB)))
