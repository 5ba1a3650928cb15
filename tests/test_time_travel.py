"""Time travel: historical manifest versions reconstruct past snapshots;
gc keeps history-referenced files; prune retires it (VACUUM analog)."""

import json
import os

import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 500


def cfg(**kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def state(lake, version=None):
    df = read_lake(lake, include_seq=True, version=version).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_time_travel_reconstructs_past_versions(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=900, n_segments=3, seed=61,
                               vocab=VOCAB)
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1)
    assert Manifest.load(tmp_lake).version == 3
    # version k == oracle over the first k segments
    for k in (1, 2, 3):
        got = state(tmp_lake, version=k)
        exp = oracle_replay(paths[:k], vocab=VOCAB).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        assert list(got["doc_id"]) == list(exp["doc_id"]), f"v{k}"
        assert list(got["sequence_number"]) == list(exp["sequence_number"])
    # version 0 = empty lake
    assert read_lake(tmp_lake, version=0).count() == 0
    # default read = latest
    assert state(tmp_lake).equals(state(tmp_lake, version=3))


@pytest.mark.usefixtures("ray_session")
def test_indented_manifest_versions_still_load(tmp_wal, tmp_lake):
    """Manifests are written compact; versions written indented (the
    earlier encoding) must still load, time-travel and take a new commit
    on top."""
    paths = generate_changelog(tmp_wal, n_events=900, n_segments=3, seed=62,
                               vocab=VOCAB)
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1, max_commits=2)
    mdir = os.path.join(tmp_lake, "_manifest")
    before = {v: state(tmp_lake, version=v) for v in (1, 2)}
    for v in (1, 2):
        path = os.path.join(mdir, f"v{v}.json")
        with open(path) as fh:
            d = json.load(fh)
        with open(path, "w") as fh:
            json.dump(d, fh, indent=1, sort_keys=True)
    for v in (1, 2):
        assert state(tmp_lake, version=v).equals(before[v])
    replay(tmp_wal, tmp_lake, cfg())
    assert Manifest.load(tmp_lake).version == 3
    with open(os.path.join(mdir, "v3.json")) as fh:
        assert "\n" not in fh.read()
    got = state(tmp_lake)
    exp = oracle_replay(paths, vocab=VOCAB).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    assert list(got["sequence_number"]) == list(exp["sequence_number"])


@pytest.mark.usefixtures("ray_session")
def test_uncommitted_version_is_not_readable(tmp_wal, tmp_lake):
    """A crash between ``v<N+1>.json``'s rename and the CURRENT flip leaves
    that version on disk but uncommitted: time travel must refuse it, and
    the default read must return the committed state."""
    from etl_ray.ops.cdc_diff import lake_diff

    paths = generate_changelog(tmp_wal, n_events=900, n_segments=3, seed=63,
                               vocab=VOCAB)
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1, max_commits=2)
    committed = state(tmp_lake)
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1)
    mdir = os.path.join(tmp_lake, "_manifest")
    with open(os.path.join(mdir, "CURRENT"), "w") as fh:
        fh.write("2")
    assert os.path.exists(os.path.join(mdir, "v3.json"))
    with pytest.raises(ValueError):
        read_lake(tmp_lake, version=3)
    with pytest.raises(ValueError):
        lake_diff(tmp_lake, from_version=2, to_version=3)
    assert state(tmp_lake).equals(committed)
    assert state(tmp_lake, version=2).equals(committed)
    # the rerun recommits version 3 over the same segment
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1)
    got = state(tmp_lake, version=3)
    exp = oracle_replay(paths, vocab=VOCAB).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    assert list(got["sequence_number"]) == list(exp["sequence_number"])
    # without CURRENT nothing is committed: only version 0 reads
    os.remove(os.path.join(mdir, "CURRENT"))
    with pytest.raises(ValueError):
        read_lake(tmp_lake, version=1)
    assert read_lake(tmp_lake, version=0).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_gc_preserves_history_prune_retires_it(tmp_wal, tmp_lake):
    generate_changelog(tmp_wal, n_events=600, n_segments=2, seed=62,
                       vocab=VOCAB)
    c = cfg(compact_min_deltas=1)
    replay(tmp_wal, tmp_lake, c, segments_per_commit=1)
    compact(tmp_lake, c, force=True)
    m = Manifest.load(tmp_lake)
    v_old = 1
    old_files = Manifest.load(tmp_lake, version=v_old).live_files()
    assert old_files
    # gc keeps everything any retained version references
    removed = m.gc()
    assert not set(removed) & set(old_files)
    before = state(tmp_lake, version=v_old)
    assert len(before) > 0
    # prune to latest only: old snapshot files reclaimed, time travel gone
    removed = Manifest.load(tmp_lake).prune(keep_last=1)
    assert set(removed) >= (set(old_files)
                            - set(Manifest.load(tmp_lake).live_files()))
    assert not os.path.exists(
        os.path.join(tmp_lake, "_manifest", f"v{v_old}.json"))
    # latest still reads fine after prune
    assert len(state(tmp_lake)) == len(before) or len(state(tmp_lake)) > 0
