"""The commit and compaction task path: every apply path finishes on 1- and
2-CPU clusters, and replay + compaction are deterministic down to the
manifest (file lists in the same order)."""

import glob
import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    from etl_ray.lake import bootstrap, read_lake
    from etl_ray.pipelines.compaction import compact
    from etl_ray.pipelines.replay import recover_quarantine, replay
    from etl_ray.sources.generator import generate_base, generate_changelog

    tmp = sys.argv[1]
    wal = os.path.join(tmp, "wal")
    base = os.path.join(tmp, "base.parquet")
    generate_base(base, n_docs=100, seed=5, vocab=100, max_tok=32)
    generate_changelog(wal, n_events=600, n_segments=3, n_base_docs=100,
                       seed=6, vocab=100, max_tok=32, corrupt_frac=0.02)

    def cfg(vocab, **kw):
        return EngineConfig(num_partitions=4, max_salt=2, batch_size=128,
                            payload=TokensPayload(vocab_size=vocab), **kw)

    def state(lake):
        df = read_lake(lake, include_seq=True).to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    lake = os.path.join(tmp, "lake")
    bootstrap(base, lake, cfg(100))
    # vocab 99 quarantines every event carrying token 99
    assert replay(wal, lake, cfg(99))
    assert recover_quarantine(lake, cfg(100)) is not None
    assert compact(lake, cfg(100), force=True)["compacted_partitions"] > 0

    lake_sort = os.path.join(tmp, "lake_sort")
    bootstrap(base, lake_sort, cfg(100))
    assert replay(wal, lake_sort, cfg(100, exchange="sort"))
    assert state(lake).equals(state(lake_sort))
    print("OK")
""")


@pytest.mark.parametrize("cpus", [1, 2])
def test_apply_paths_finish_on_small_clusters(tmp_path, cpus):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOW_CPU_SCRIPT, str(tmp_path), str(cpus)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"apply paths did not finish in 300 s at {cpus} CPUs")
    assert proc.returncode == 0 and out.rstrip().endswith("OK"), out[-3000:]


def _manifests(lake: str) -> list:
    """Every manifest version with its timing-dependent fields removed."""
    out = []
    paths = glob.glob(os.path.join(lake, "_manifest", "v*.json"))
    for path in sorted(paths, key=lambda p: int(
            os.path.basename(p)[1:-len(".json")])):
        with open(path) as fh:
            m = json.load(fh)
        for c in m["lineage"]["commits"]:
            for k in ("wall_sec", "events_per_sec", "histograms"):
                c.pop(k, None)
            for pp in (c.get("per_partition") or {}).values():
                pp.pop("sec", None)
                pp.pop("rows_per_sec", None)
        out.append(m)
    return out


@pytest.mark.usefixtures("ray_session")
def test_replay_and_compaction_are_deterministic(tmp_wal, tmp_path):
    generate_changelog(tmp_wal, n_events=1500, n_segments=6, seed=21,
                       vocab=500, max_tok=48, corrupt_frac=0.03)
    # apply_concurrency=1 vs the default: in-flight limits must not change
    # which files a commit lists, or in which order
    lakes = []
    for i, conc in enumerate((1, None)):
        lake = str(tmp_path / f"lake{i}")
        c = EngineConfig(num_partitions=8, max_salt=2, batch_size=128,
                         apply_concurrency=conc,
                         payload=TokensPayload(vocab_size=500))
        assert len(replay(tmp_wal, lake, c, segments_per_commit=2)) == 3
        compact(lake, c, force=True)
        lakes.append(lake)
    a, b = (_manifests(lake) for lake in lakes)
    assert len(a) == 4
    assert a == b
    # some partition lists several delta files, so order was checked
    assert any(len(p["files"]) > 1
               for p in a[2]["partitions"].values())
