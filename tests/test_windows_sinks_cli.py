"""Windowing ops, JSONL sink, CLI driver."""

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from etl_ray.ops.windows import rolling_stats, sessionize, tumbling_window
from etl_ray.sinks import JsonlRowSink, sink_path_for


def events_df():
    base = pd.Timestamp("2024-01-01")
    rows = []
    # user 1: two sessions (gap of 2h between event 2 and 3)
    for i, minutes in enumerate([0, 10, 20, 150, 160]):
        rows.append((i, base + pd.Timedelta(minutes=minutes), 1, 10.0 + i))
    # user 2: one session
    for i, minutes in enumerate([5, 15]):
        rows.append((10 + i, base + pd.Timedelta(minutes=minutes), 2, 1.5))
    return pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "value"])


@pytest.mark.usefixtures("ray_session")
def test_sessionize():
    import ray.data as rd

    out = sessionize(rd.from_pandas(events_df()), gap_minutes=30).to_pandas()
    out = out.sort_values(["user_id", "session_id"]).reset_index(drop=True)
    u1 = out[out["user_id"] == 1]
    assert list(u1["n_events"]) == [3, 2]
    assert list(u1["sum_value"]) == [33.0, 27.0]
    u2 = out[out["user_id"] == 2]
    assert list(u2["n_events"]) == [2]
    assert u2.iloc[0]["sum_value"] == 3.0


@pytest.mark.usefixtures("ray_session")
def test_rolling_stats():
    import ray.data as rd

    out = rolling_stats(rd.from_pandas(events_df()), window=3).to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("event_id")
    assert list(u1["moving_avg"]) == [10.0, 10.5, 11.0, 12.0, 13.0]


@pytest.mark.usefixtures("ray_session")
def test_tumbling_window():
    import ray.data as rd

    out = tumbling_window(rd.from_pandas(events_df()), freq="h").to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("window")
    assert list(u1["n"]) == [3, 2]


def test_jsonl_sink_atomic(tmp_path):
    path = str(tmp_path / "out" / "rows.jsonl")
    sink = JsonlRowSink(path)
    sink.commit([{"a": 1}, {"a": 2}])
    assert not os.path.exists(path)  # invisible before close
    n = sink.close()
    assert n == 2 and os.path.exists(path)
    meta = json.load(open(path + ".meta.json"))
    assert meta["rows"] == 2
    lines = [json.loads(l) for l in open(path)]
    assert lines == [{"a": 1}, {"a": 2}]


def test_jsonl_sink_abandon(tmp_path):
    path = str(tmp_path / "x.jsonl")
    sink = JsonlRowSink(path)
    sink.commit([{"a": 1}])
    sink.abandon()
    assert not os.path.exists(path) and not os.path.exists(path + ".tmp")


def test_sink_path_deterministic(tmp_path):
    p1 = sink_path_for("/out", "bucket/exp/2024/01/01/a.tgz")
    assert p1 == "/out/bucket-exp-2024-01-01-a.tgz.jsonl"


def test_cli_end_to_end(tmp_path):
    """Drive the real CLI in a subprocess: bootstrap → replay → status →
    compact → export (the ray job submit surface)."""
    from etl_ray.sources.generator import generate_base, generate_changelog

    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    out = str(tmp_path / "export")
    base = str(tmp_path / "base.parquet")
    generate_base(base, n_docs=50, seed=4, vocab=500)
    generate_changelog(wal, n_events=400, n_segments=2, n_base_docs=50,
                       seed=5, vocab=500)
    env = dict(os.environ, PYTHONPATH="/root/repo")

    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "etl_ray", "--num-cpus", "4", *args],
            capture_output=True, text=True, env=env, timeout=240,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        out = []
        for line in r.stdout.strip().splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # Ray banner lines on stdout
        return out

    run("bootstrap", "--base", base, "--lake", lake,
        "--num-partitions", "4")
    commits = run("replay", "--wal", wal, "--lake", lake,
                  "--num-partitions", "4")
    assert commits and commits[0]["events_in"] == 400
    status = run("status", "--lake", lake)[0]
    assert status["applied_through_segment"] == 1
    assert status["lineage"]["events_in"] == 400
    res = run("compact", "--lake", lake, "--force",
              "--num-partitions", "4")[0]
    assert res["compacted_partitions"] == 4
    # bootstrap and replay deltas, no base: each base is written whole
    assert (res["promoted"], res["minor"], res["major"]) == (0, 0, 4)
    assert res["bytes_written"] > 0
    gc = run("gc", "--lake", lake)[0]
    assert all("delta-" in f or "base-g" in f for f in gc["removed"])
    exp = run("export", "--lake", lake, "--out", out,
              "--num-partitions", "4")[0]
    assert exp["rows"] == status["lineage"]["rows_written"] - status[
        "lineage"]["deletes"] or exp["rows"] > 0
