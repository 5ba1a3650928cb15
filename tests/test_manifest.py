"""Constant-size manifest versions: each ``v<N>.json`` holds its snapshot
and its own commit record; history is read from the retained versions;
lakes whose versions embed the whole history still open; every rename
into place is followed by a directory fsync."""

import json
import os
import shutil
import time

import pandas as pd
import pyarrow as pa
import pytest

import etl_ray.state.manifest as manifest_mod
from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake, write_file
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import _fold_commit_stats, replay, replay_once
from etl_ray.sources.generator import generate_changelog
from etl_ray.stages.apply import STATS_SCHEMA
from etl_ray.state.manifest import Manifest
from etl_ray.state.stats import CommitStats, prometheus_text

VOCAB = 500
TIMING = ("wall_sec", "events_per_sec", "histograms")


def cfg(**kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("max_salt", 2)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def untimed(rec: dict) -> dict:
    """A commit record without its timing-dependent fields."""
    rec = {k: v for k, v in rec.items() if k not in TIMING}
    if "per_partition" in rec:
        rec["per_partition"] = {
            k: {f: x for f, x in pp.items() if f not in ("sec", "rows_per_sec")}
            for k, pp in rec["per_partition"].items()}
    return rec


def untimed_metrics(text: str) -> list:
    return [ln for ln in text.splitlines() if "_seconds" not in ln]


def metrics(lake: str) -> str:
    return prometheus_text(Manifest.load(lake))


def state(lake, version=None):
    df = read_lake(lake, include_seq=True, version=version).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------- flat size
def _synthetic_stats(commit_id: str, rows_in: list,
                     quarantined: int) -> pa.Table:
    """Stats of one commit: ``rows_in[k]`` events into partition k, and
    ``quarantined`` events into one quarantine file."""
    out = [{"shard": k, "part": k, "rows_in": r, "rows_out": r,
            "deletes": r // 25, "max_seq": 10_000 + k,
            "file": f"part={k}/delta-{commit_id}-p{k}-s0.parquet",
            "wall_sec": 0.0123 * (k + 1)} for k, r in enumerate(rows_in)]
    out.append({"shard": -1, "part": -1, "rows_in": quarantined,
                "rows_out": quarantined, "deletes": 0, "max_seq": -1,
                "file": f"_quarantine/q-{commit_id}.parquet",
                "wall_sec": 0.001})
    return pa.Table.from_pylist(out, schema=STATS_SCHEMA)


def test_version_size_is_flat_in_history(tmp_lake):
    """10 and 2,000 commits folded through the real fold and commit code
    leave a final ``v<N>.json`` of the same size (within 5 %). Odd commits
    are replays that quarantine 6 events; even ones are recoveries that
    re-read the quarantine, recover 4 events and replace the quarantine
    with the rest. The lineage keeps ``events_in == valid + quarantined``
    after every commit."""
    target = pa.schema([("op", pa.string()), ("doc_id", pa.string()),
                        ("sequence_number", pa.int64()),
                        ("tokens", pa.list_(pa.int32()))])
    m = Manifest(lake_dir=tmp_lake, num_partitions=8)
    replayed = [125 + k for k in range(8)]
    sizes = {}
    for n in range(1, 2001):
        recovery = n % 2 == 0
        cs = CommitStats(commit_id=m.commit_id,
                         segments=[] if recovery else [n - 1])
        if recovery:
            stats = _synthetic_stats(m.commit_id, [1] * 4,
                                     m.lineage["quarantined"] - 4)
        else:
            stats = _synthetic_stats(m.commit_id, replayed, 6)
            m.applied_through_segment = n - 1
        rec = _fold_commit_stats(m, cs, stats, target, time.monotonic(),
                                 replace_quarantine=recovery)
        m.commit(rec)
        lin = m.lineage
        assert lin["events_in"] == lin["valid"] + lin["quarantined"], n
        assert len(m.quarantine_files) == (1 if recovery else 2 - (n == 1))
        # a compaction's effect on the snapshot: one live file per partition
        for k, p in m.partitions.items():
            p.files = [f"part={k}/base-g{m.version}.parquet"]
        if n in (10, 2000):
            sizes[n] = os.path.getsize(os.path.join(
                tmp_lake, "_manifest", f"v{n}.json"))
    assert abs(sizes[2000] - sizes[10]) <= 0.05 * sizes[10], sizes
    loaded = Manifest.load(tmp_lake)
    assert loaded.lineage["commits_total"] == 2000
    assert loaded.lineage["events_in"] == 1000 * (sum(replayed) + 6)
    assert loaded.lineage["quarantined"] == 1000 * 2
    assert loaded.histograms["shard_rows"]["count"] == 1000 * (9 + 5)
    assert loaded.record["commit_id"] == "c002000"
    hist = Manifest.history(tmp_lake, last=3)
    assert [r["commit_id"] for r in hist] == ["c001998", "c001999",
                                              "c002000"]


# --------------------------------------------------------- durable renames
def test_every_rename_is_followed_by_a_directory_fsync(tmp_path,
                                                       monkeypatch):
    """The manifest (version file and CURRENT), lake files, IVM view state,
    signature-index meta and sinks all publish through one writer: fsync
    the tmp file, rename, fsync the directory."""
    from etl_ray.ops import dedup_ivm, ivm
    from etl_ray.sinks import JsonlRowSink

    events = []
    fsync, replace = os.fsync, os.replace

    def rec_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino))
        fsync(fd)

    def rec_replace(src, dst):
        replace(src, dst)
        events.append(("replace", dst))

    monkeypatch.setattr(os, "fsync", rec_fsync)
    monkeypatch.setattr(os, "replace", rec_replace)
    lake = str(tmp_path / "lake")
    m = Manifest(lake_dir=lake, version=1)
    m.commit({"commit_id": "c000001"})
    write_file(pa.table({"doc_id": ["a"]}),
               os.path.join(lake, "part=0", "delta.parquet"))
    spec = ivm.ViewSpec(name="v", group_col="g")
    ivm._write_state(lake, spec, pd.DataFrame({"g": ["x"], "n_docs": [1]}),
                     1)
    dedup_ivm._write_meta(lake, "sig", {"as_of_version": 1})
    sink = JsonlRowSink(str(tmp_path / "out" / "rows.jsonl"))
    sink.commit([{"a": 1}])
    sink.close()
    monkeypatch.undo()

    replaced = [e[1] for e in events if e[0] == "replace"]
    assert len(replaced) == 8
    for i, e in enumerate(events):
        if e[0] != "replace":
            continue
        dst = e[1]
        assert events[i - 1] == ("fsync", os.stat(dst).st_ino), dst
        assert events[i + 1] == (
            "fsync", os.stat(os.path.dirname(dst)).st_ino), dst


# ------------------------------------------------------ earlier-format lakes
def _embed_history(lake: str) -> None:
    """Rewrite every version the way the earlier format stored it: the
    whole history under ``lineage.commits``, and no folded fields."""
    mdir = os.path.join(lake, "_manifest")
    hist = []
    for v in range(1, Manifest.load(lake).version + 1):
        path = os.path.join(mdir, f"v{v}.json")
        with open(path) as fh:
            d = json.load(fh)
        hist.append(d.pop("commit"))
        del d["histograms"], d["partition_rows"]
        del d["lineage"]["commits_total"]
        d["lineage"]["commits"] = list(hist)
        with open(path, "w") as fh:
            json.dump(d, fh, indent=1, sort_keys=True)


@pytest.mark.usefixtures("ray_session")
def test_versions_embedding_the_history_still_open(tmp_wal, tmp_path):
    """A lake whose versions embed the whole history loads to the same
    snapshot, history and /metrics as one that never did, and replays on
    and compacts to the same state."""
    generate_changelog(tmp_wal, n_events=1200, n_segments=4, seed=71,
                       vocab=VOCAB, corrupt_frac=0.03)
    c = cfg(salt_threshold=1)
    new = str(tmp_path / "new")
    replay(tmp_wal, new, c, segments_per_commit=1, max_commits=2)
    compact(new, c, force=True)
    replay(tmp_wal, new, c, segments_per_commit=1, max_commits=1)
    old = str(tmp_path / "old")
    shutil.copytree(new, old)
    _embed_history(old)

    assert len(Manifest.history(old)) == 4
    assert Manifest.history(old) == Manifest.history(new)
    assert Manifest.history(old, last=2) == Manifest.history(new, last=2)
    assert metrics(old) == metrics(new)
    assert "etl_ray_commits_total 4" in metrics(old)
    for v in range(1, 5):
        assert (Manifest.load(old, v).to_json()
                == Manifest.load(new, v).to_json()), f"v{v}"

    for lake in (new, old):
        replay(tmp_wal, lake, c)
        compact(lake, c, force=True)
    hist_new, hist_old = Manifest.history(new), Manifest.history(old)
    assert len(hist_new) == 6
    assert [untimed(r) for r in hist_old] == [untimed(r) for r in hist_new]
    assert untimed_metrics(metrics(old)) == untimed_metrics(metrics(new))
    assert "etl_ray_commits_total 6" in metrics(old)
    m_old, m_new = Manifest.load(old), Manifest.load(new)
    assert m_old.partitions == m_new.partitions
    assert m_old.partition_rows == m_new.partition_rows
    assert m_old.histograms["shard_rows"] == m_new.histograms["shard_rows"]
    with open(os.path.join(old, "_manifest", "v6.json")) as fh:
        assert "commits" not in json.load(fh)["lineage"]
    assert state(old).equals(state(new))
    # prune drops records from the history, not from the counters
    Manifest.load(old).prune(keep_last=2)
    assert [r["commit_id"] for r in Manifest.history(old)] == [
        r["commit_id"] for r in hist_old[-2:]]
    assert metrics(old) == prometheus_text(m_old)


# ------------------------------------------------------------- crash window
@pytest.mark.usefixtures("ray_session")
def test_uncommitted_version_record_is_not_counted(tmp_wal, tmp_lake,
                                                   monkeypatch):
    """A crash after ``v<N+1>.json``'s rename and before the CURRENT flip:
    neither the history nor /metrics counts that version's record, and the
    rerun recommits the same record."""
    generate_changelog(tmp_wal, n_events=900, n_segments=3, seed=72,
                       vocab=VOCAB, corrupt_frac=0.03)
    replay(tmp_wal, tmp_lake, cfg(), segments_per_commit=1, max_commits=2)
    hist, text = Manifest.history(tmp_lake), metrics(tmp_lake)
    write_atomic = manifest_mod.write_atomic

    def crash_before_current(path, data):
        if os.path.basename(path) == "CURRENT":
            raise RuntimeError("crash before the CURRENT flip")
        write_atomic(path, data)

    monkeypatch.setattr(manifest_mod, "write_atomic", crash_before_current)
    with pytest.raises(RuntimeError, match="CURRENT flip"):
        replay_once(tmp_wal, tmp_lake, cfg(), max_segments=1)
    monkeypatch.undo()
    v3 = os.path.join(tmp_lake, "_manifest", "v3.json")
    with open(v3) as fh:
        crashed = json.load(fh)
    assert crashed["lineage"]["commits_total"] == 3
    assert Manifest.history(tmp_lake) == hist
    assert metrics(tmp_lake) == text
    assert "etl_ray_commits_total 2" in text

    replay_once(tmp_wal, tmp_lake, cfg(), max_segments=1)
    rerun = Manifest.history(tmp_lake)
    assert rerun[:2] == hist
    assert untimed(rerun[2]) == untimed(crashed["commit"])
    with open(v3) as fh:
        again = json.load(fh)
    assert again["histograms"]["shard_rows"] == \
        crashed["histograms"]["shard_rows"]
    assert again["lineage"] == crashed["lineage"]


def test_concurrent_writers_of_one_path_publish_whole_files(tmp_path):
    """Two threads publish different contents to one path through
    ``atomic_path``, each writing in chunks: no publish fails, and the
    file always ends as one writer's whole content. With one shared tmp
    name, one writer's rename takes the other's half-written file and the
    other's rename then finds no tmp."""
    import threading

    from etl_ray.util import atomic_path

    path = str(tmp_path / "v1.json")
    contents = [bytes([ord("a") + i]) * (1 << 16) for i in range(2)]
    errors = []

    def writer(data):
        try:
            for _ in range(100):
                with atomic_path(path) as tmp, open(tmp, "wb") as f:
                    for i in range(0, len(data), 4096):
                        f.write(data[i:i + 4096])
                        f.flush()
                        time.sleep(0)
        except Exception as e:  # collected; asserted in the main thread
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(c,)) for c in contents]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    with open(path, "rb") as f:
        assert f.read() in contents
    assert os.listdir(tmp_path) == ["v1.json"]


def test_gc_removes_tmp_files_killed_writers_left(tmp_lake):
    """A writer killed inside ``atomic_path`` leaves its uniquely named tmp
    beside the target; ``gc`` removes those in the lake and ``_manifest/``
    and keeps every listed file and the ``_views/`` state."""
    from etl_ray.util import atomic_path

    m = Manifest(lake_dir=tmp_lake, num_partitions=2)
    rel = os.path.join("part=0", "delta-c000001-p0-s0.parquet")
    write_file(pa.table({"doc_id": ["a"], "sequence_number": [1]}),
               os.path.join(tmp_lake, rel))
    m.partition(0).files = [rel]
    m.version = 1
    m.commit({"commit_id": "c000001"})

    def killed_writer(path):
        # entered and never exited: the process died while writing
        tmp = atomic_path(path).__enter__()
        with open(tmp, "wb") as f:
            f.write(b"half")
        return os.path.relpath(tmp, tmp_lake)

    left = {killed_writer(os.path.join(tmp_lake, rel)),
            killed_writer(os.path.join(m.manifest_dir, "v2.json"))}
    views = os.path.join(tmp_lake, manifest_mod.VIEWS_DIR, "v")
    os.makedirs(views)
    with open(os.path.join(views, "meta.json.tmp"), "w") as f:
        f.write("{}")
    assert all(p.endswith(".tmp") for p in left)

    assert set(Manifest.load(tmp_lake).gc()) == left
    assert not any(os.path.exists(os.path.join(tmp_lake, p)) for p in left)
    assert os.path.exists(os.path.join(tmp_lake, rel))
    assert os.path.exists(os.path.join(views, "meta.json.tmp"))
    assert Manifest.load(tmp_lake).version == 1
