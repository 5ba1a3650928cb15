"""The lake-write task path: every apply path finishes on 1- and 2-CPU
clusters, no bootstrap, commit, recovery or compaction plans a Ray Data
pipeline, and replay + compaction are deterministic down to
the manifest (file lists in the same order)."""

import glob
import hashlib
import json
import os
import textwrap

import pytest

import etl_ray.util
from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import (bootstrap, recover_quarantine, replay,
                                      replay_once)
from etl_ray.sources.generator import generate_base, generate_changelog

# Runs in its own process so it can size its own Ray cluster. Each path
# used to hang at 1-2 CPUs behind an actor pool that held every CPU the
# upstream sort needed.
_LOW_CPU_SCRIPT = textwrap.dedent("""
    import os, sys
    import ray
    ray.init(address="local", num_cpus=int(sys.argv[2]),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from etl_ray.config import EngineConfig, TokensPayload
    from etl_ray.pipelines import compaction
    from etl_ray.pipelines.compaction import compact
    from etl_ray.pipelines.replay import bootstrap, recover_quarantine, replay
    from etl_ray.sources.generator import generate_base, generate_changelog
    from etl_ray.state.manifest import Manifest
    import pyarrow.parquet as pq

    tmp = sys.argv[1]
    wal = os.path.join(tmp, "wal")
    base = os.path.join(tmp, "base.parquet")
    generate_base(base, n_docs=100, seed=5, vocab=100, max_tok=32)
    generate_changelog(wal, n_events=600, n_segments=3, n_base_docs=100,
                       seed=6, vocab=100, max_tok=32, corrupt_frac=0.02)

    def cfg(vocab):
        return EngineConfig(num_partitions=4, max_salt=2, batch_size=128,
                            payload=TokensPayload(vocab_size=vocab))

    lake = os.path.join(tmp, "lake")
    bootstrap(base, lake, cfg(100))
    # vocab 99 quarantines every event carrying token 99
    assert replay(wal, lake, cfg(99))
    # a multi-range compaction, then a one-range one after recovery
    compaction.ROWS_PER_RANGE = 16
    assert compact(lake, cfg(99), force=True)["compacted_partitions"] > 0
    assert any(pq.ParquetFile(os.path.join(lake, f)).num_row_groups > 1
               for f in Manifest.load(lake).live_files())
    compaction.ROWS_PER_RANGE = 1 << 20
    assert recover_quarantine(lake, cfg(100)) is not None
    assert compact(lake, cfg(100), force=True)["compacted_partitions"] > 0
    print("OK")
""")


@pytest.mark.parametrize("cpus", [1, 2])
def test_apply_paths_finish_on_small_clusters(run_own_cluster, cpus):
    run_own_cluster(_LOW_CPU_SCRIPT, cpus)


@pytest.mark.usefixtures("ray_session", "forbid_ray_data")
def test_commit_path_plans_no_ray_data(tmp_wal, tmp_path):
    """Bootstrap, replay, quarantine recovery and compaction dispatch plain
    Ray tasks: with Ray Data's entry points patched to raise, all four
    finish."""
    base = str(tmp_path / "base.parquet")
    generate_base(base, n_docs=100, seed=5, vocab=100, max_tok=32)
    generate_changelog(tmp_wal, n_events=600, n_segments=3, n_base_docs=100,
                       seed=6, vocab=100, max_tok=32, corrupt_frac=0.02)
    lake = str(tmp_path / "lake")

    def cfg(vocab):
        return EngineConfig(num_partitions=4, max_salt=2, batch_size=128,
                            payload=TokensPayload(vocab_size=vocab))

    assert bootstrap(base, lake, cfg(100)).version == 1
    # vocab 99 quarantines every event carrying token 99
    assert replay_once(tmp_wal, lake, cfg(99)).quarantined > 0
    assert recover_quarantine(lake, cfg(100)) is not None
    assert compact(lake, cfg(100), force=True)["compacted_partitions"] > 0
    # the patches are live: the read path does plan a Ray Data pipeline
    with pytest.raises(AssertionError, match="Ray Data pipeline planned"):
        read_lake(lake)


def _manifests(lake: str) -> list:
    """Every manifest version with its timing-dependent fields removed."""
    out = []
    paths = glob.glob(os.path.join(lake, "_manifest", "v*.json"))
    for path in sorted(paths, key=lambda p: int(
            os.path.basename(p)[1:-len(".json")])):
        with open(path) as fh:
            m = json.load(fh)
        c = m["commit"]
        for k in ("wall_sec", "events_per_sec", "histograms"):
            c.pop(k, None)
        for pp in (c.get("per_partition") or {}).values():
            pp.pop("sec", None)
            pp.pop("rows_per_sec", None)
        m["histograms"].pop("shard_apply_seconds", None)
        out.append(m)
    return out


def _parquet_digests(lake: str) -> dict:
    """sha256 of every Parquet file under the lake, by relative path."""
    out = {}
    for path in glob.glob(os.path.join(lake, "**", "*.parquet"),
                          recursive=True):
        with open(path, "rb") as fh:
            out[os.path.relpath(path, lake)] = hashlib.sha256(
                fh.read()).hexdigest()
    return out


@pytest.mark.usefixtures("ray_session")
def test_replay_and_compaction_are_deterministic(tmp_wal, tmp_path,
                                                 monkeypatch):
    generate_changelog(tmp_wal, n_events=1500, n_segments=6, seed=21,
                       vocab=500, max_tok=48, corrupt_frac=0.03)
    # one task per stage vs the default task count: packing must not change
    # which files a commit lists, or in which order
    c = EngineConfig(num_partitions=8, max_salt=2, batch_size=128,
                     payload=TokensPayload(vocab_size=500))
    lakes = []
    for i, one_task in enumerate((True, False)):
        lake = str(tmp_path / f"lake{i}")
        with monkeypatch.context() as mp:
            if one_task:
                mp.setattr(etl_ray.util, "task_count", lambda n: min(n, 1))
            assert len(replay(tmp_wal, lake, c, segments_per_commit=2)) == 3
            compact(lake, c, force=True)
        lakes.append(lake)
    a, b = (_manifests(lake) for lake in lakes)
    assert len(a) == 4
    assert a == b
    # and every lake Parquet file holds the same bytes
    x, y = (_parquet_digests(lake) for lake in lakes)
    assert x and x == y
    # some partition lists several delta files, so order was checked
    assert any(len(p["files"]) > 1
               for p in a[2]["partitions"].values())
