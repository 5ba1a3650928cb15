"""End-to-end replay vs the pure-pyarrow oracle: token-array equality per
doc_id (BASELINE.json input_hint), exactly-once under duplicate delivery and
crash/resume, quarantine lineage."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake, read_quarantine
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines.replay import bootstrap, replay, replay_once
from etl_ray.sources.generator import generate_base, generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 1000


def cfg(**kw):
    kw.setdefault("num_partitions", 8)
    kw.setdefault("max_salt", 4)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def lake_state(lake_dir):
    t = read_lake(lake_dir, include_seq=True).to_pandas()
    return t.sort_values("doc_id").reset_index(drop=True)


def assert_matches_oracle(lake_dir, oracle: pa.Table):
    got = lake_state(lake_dir)
    exp = oracle.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(exp), f"{len(got)} rows != oracle {len(exp)}"
    assert list(got["doc_id"]) == list(exp["doc_id"])
    for g, e in zip(got["tokens"], exp["tokens"]):
        assert list(g) == list(e)
    assert list(got["n_tok"]) == list(exp["n_tok"])
    assert list(got["source"]) == list(exp["source"])
    assert list(got["sequence_number"]) == list(exp["sequence_number"])


@pytest.mark.usefixtures("ray_session")
def test_full_replay_matches_oracle(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=2000, n_segments=5,
                               n_base_docs=0, seed=11, vocab=VOCAB)
    commits = replay(tmp_wal, tmp_lake, cfg())
    assert len(commits) == 1
    assert commits[0].events_in == 2000
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_replay_with_base_and_multi_commit(tmp_wal, tmp_lake, tmp_path):
    base_path = str(tmp_path / "base.parquet")
    base = generate_base(base_path, n_docs=200, seed=2, vocab=VOCAB)
    paths = generate_changelog(tmp_wal, n_events=1500, n_segments=6,
                               n_base_docs=200, seed=12, vocab=VOCAB)
    c = cfg()
    bootstrap(base_path, tmp_lake, c)
    commits = replay(tmp_wal, tmp_lake, c, segments_per_commit=2)
    assert len(commits) == 3
    m = Manifest.load(tmp_lake)
    assert m.applied_through_segment == 5
    assert_matches_oracle(
        tmp_lake, oracle_replay(paths, base_table=base, vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_invalid_base_row_aborts_bootstrap(tmp_wal, tmp_lake, tmp_path):
    """Base rows are validated like changelog events: one invalid row
    aborts the bootstrap and leaves the lake empty."""
    import os

    from etl_ray.pipelines.replay import CommitAborted

    base_path = str(tmp_path / "base.parquet")
    base = generate_base(base_path, n_docs=200, seed=2, vocab=VOCAB)
    tokens = base["tokens"].to_pylist()
    tokens[7][-1] = VOCAB  # one out-of-vocab token
    bad_path = str(tmp_path / "bad.parquet")
    pq.write_table(base.set_column(
        base.schema.get_field_index("tokens"), "tokens",
        pa.array(tokens, base.schema.field("tokens").type)), bad_path)
    with pytest.raises(CommitAborted,
                       match=r"1 invalid base rows \(token out of vocab\)"):
        bootstrap(bad_path, tmp_lake, cfg())
    assert Manifest.load(tmp_lake).version == 0
    assert not os.path.exists(os.path.join(tmp_lake, "_exchange"))
    # no delta or quarantine file of the aborted commit is left
    left = [os.path.join(d, f) for d, _, fs in os.walk(tmp_lake)
            for f in fs if f.endswith(".parquet")]
    assert left == []
    assert bootstrap(base_path, tmp_lake, cfg()).version == 1
    paths = generate_changelog(tmp_wal, n_events=400, n_segments=1,
                               n_base_docs=200, seed=3, vocab=VOCAB)
    replay(tmp_wal, tmp_lake, cfg())
    assert_matches_oracle(
        tmp_lake, oracle_replay(paths, base_table=base, vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_duplicate_delivery_idempotent(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=800, n_segments=4,
                               n_base_docs=0, seed=13, vocab=VOCAB)
    c = cfg()
    replay(tmp_wal, tmp_lake, c)
    before = lake_state(tmp_lake)
    v_before = Manifest.load(tmp_lake).version
    # duplicate delivery of already-applied segments: watermark skips them
    again = replay(tmp_wal, tmp_lake, c)
    assert again == []
    assert Manifest.load(tmp_lake).version == v_before
    after = lake_state(tmp_lake)
    assert before.equals(after)


@pytest.mark.usefixtures("ray_session")
def test_crash_before_commit_then_resume(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=1200, n_segments=4,
                               n_base_docs=0, seed=14, vocab=VOCAB)
    c = cfg()
    # commit 1 applies segments 0-1 normally
    replay_once(tmp_wal, tmp_lake, c, max_segments=2)
    # commit 2 crashes AFTER writing data files but BEFORE the manifest flip
    replay_once(tmp_wal, tmp_lake, c, max_segments=2, commit=False)
    m = Manifest.load(tmp_lake)
    assert m.applied_through_segment == 1  # watermark unchanged
    # restart: rerun applies the same segments; deterministic same files
    replay(tmp_wal, tmp_lake, c)
    assert Manifest.load(tmp_lake).applied_through_segment == 3
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_quarantine_and_lineage(tmp_wal, tmp_lake):
    paths = generate_changelog(tmp_wal, n_events=1000, n_segments=2,
                               n_base_docs=50, seed=15, vocab=VOCAB,
                               corrupt_frac=0.08)
    c = cfg()
    commits = replay(tmp_wal, tmp_lake, c)
    cs = commits[0]
    assert cs.quarantined > 20
    assert cs.events_in == 1000
    assert cs.valid == cs.events_in - cs.quarantined
    q = read_quarantine(tmp_lake)
    assert len(q) == cs.quarantined
    assert q["__reason"].null_count == 0
    reasons = set(q["__reason"].to_pylist())
    assert "unknown op" in reasons
    # corrupt events were never applied; final state matches oracle (which
    # skips invalid rows by the same rules)
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))
    # manifest lineage invariant: events_in == valid + quarantined
    lin = Manifest.load(tmp_lake).lineage
    assert lin["events_in"] == lin["valid"] + lin["quarantined"]


@pytest.mark.usefixtures("ray_session")
def test_salted_replay_same_result(tmp_wal, tmp_lake, tmp_path):
    paths = generate_changelog(tmp_wal, n_events=1500, n_segments=3,
                               n_base_docs=0, seed=16, vocab=VOCAB)
    # salt_threshold=1 → every partition salted after the first commit
    c = cfg(salt_threshold=1)
    commits = replay(tmp_wal, tmp_lake, c, segments_per_commit=1)
    assert len(commits) == 3
    # later commits actually salted: >1 delta file per partition per commit
    m = Manifest.load(tmp_lake)
    salted_files = [
        f for p in m.partitions.values() for f in p.files if "-s1" in f or "-s2" in f
    ]
    assert salted_files
    assert_matches_oracle(tmp_lake, oracle_replay(paths, vocab=VOCAB))


def test_write_file_fsyncs_before_rename(tmp_path, monkeypatch):
    """A lake file's bytes are synced before the rename publishes it, and
    its directory after, so a committed manifest never lists a file that
    may not be on disk."""
    import os

    from etl_ray.lake import write_file

    calls = []
    fsync, replace = os.fsync, os.replace

    def rec_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def rec_replace(src, dst):
        calls.append(("replace", dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", rec_fsync)
    monkeypatch.setattr(os, "replace", rec_replace)
    path = str(tmp_path / "part=0" / "delta.parquet")
    assert write_file(pa.table({"doc_id": ["a", "b"]}), path) == 2
    monkeypatch.undo()
    assert calls == [("fsync", os.stat(path).st_ino), ("replace", path),
                     ("fsync", os.stat(os.path.dirname(path)).st_ino)]
    assert pq.read_table(path)["doc_id"].to_pylist() == ["a", "b"]


@pytest.mark.usefixtures("ray_session")
def test_every_lake_writer_uses_the_lake_format(tmp_wal, tmp_lake, tmp_path,
                                                monkeypatch,
                                                assert_lake_format):
    """Bootstrap bases, deltas, quarantine files and one- and multi-range
    compacted bases all carry the lake file format; stage-1 fragments are
    Arrow IPC files."""
    import glob
    import os

    from etl_ray.pipelines import compaction
    from etl_ray.pipelines.compaction import compact
    from etl_ray.stages import exchange

    base_path = str(tmp_path / "base.parquet")
    base = generate_base(base_path, n_docs=200, seed=5, vocab=VOCAB)
    paths = generate_changelog(tmp_wal, n_events=1600, n_segments=4,
                               n_base_docs=200, seed=17, vocab=VOCAB,
                               corrupt_frac=0.05)
    c = cfg(num_partitions=4)

    def check(kind, rels):
        assert rels, kind
        for rel in rels:
            cols = assert_lake_format(os.path.join(tmp_lake, rel))
            if kind != "quarantine":
                assert {"tokens.list.element", "sequence_number"} <= cols, \
                    (kind, rel)

    bootstrap(base_path, tmp_lake, c)
    check("bootstrap base", Manifest.load(tmp_lake).live_files())
    replay_once(tmp_wal, tmp_lake, c, max_segments=1)
    m = Manifest.load(tmp_lake)
    check("delta", [f for f in m.live_files() if "/delta-" in f])
    check("quarantine", m.quarantine_files)

    # a crash before the manifest flip, with the fragment cleanup skipped,
    # leaves that commit's stage-1 fragments on disk
    monkeypatch.setattr(exchange, "cleanup_exchange", lambda *a, **k: None)
    replay_once(tmp_wal, tmp_lake, c, max_segments=1, commit=False)
    monkeypatch.undo()
    frags = glob.glob(os.path.join(tmp_lake, "_exchange", "*", "frag-*"))
    assert frags
    for f in frags:  # fragments are transient Arrow IPC, not lake files
        with pa.ipc.open_file(f) as r:
            assert r.num_record_batches > 0, f

    replay(tmp_wal, tmp_lake, c, max_commits=1, segments_per_commit=2)
    compact(tmp_lake, c, force=True)
    check("one-range base", Manifest.load(tmp_lake).live_files())
    replay(tmp_wal, tmp_lake, c)
    monkeypatch.setattr(compaction, "ROWS_PER_RANGE", 40)
    compact(tmp_lake, c, force=True)
    streamed = Manifest.load(tmp_lake).live_files()
    check("multi-range base", streamed)
    # a multi-range compaction writes one row group per doc_id range; a
    # one-range compaction writes one
    for rel in streamed:
        assert pq.ParquetFile(os.path.join(tmp_lake, rel)) \
            .metadata.num_row_groups > 1, rel
    assert_matches_oracle(
        tmp_lake, oracle_replay(paths, base_table=base, vocab=VOCAB))


@pytest.mark.usefixtures("ray_session")
def test_duckdb_reads_deltas_and_bases(tmp_wal, tmp_lake):
    """DuckDB reads a delta and a compacted base to the same rows as the
    engine's own reader, so the lake's encodings stay ones it supports."""
    import os

    import duckdb

    from etl_ray.lake import read_file
    from etl_ray.pipelines.compaction import compact

    generate_changelog(tmp_wal, n_events=1200, n_segments=2,
                       n_base_docs=0, seed=18, vocab=VOCAB)
    c = cfg(num_partitions=4)
    replay(tmp_wal, tmp_lake, c, segments_per_commit=1)
    delta = next(f for f in Manifest.load(tmp_lake).live_files()
                 if "/delta-" in f)
    compact(tmp_lake, c, force=True)
    base = Manifest.load(tmp_lake).live_files()[0]
    for rel in (delta, base):
        path = os.path.join(tmp_lake, rel)
        ours = read_file(path).to_pylist()
        theirs = duckdb.sql(
            f"SELECT * FROM read_parquet('{path}', hive_partitioning = false)"
            " ORDER BY doc_id"
        ).arrow().to_pylist()
        assert len(ours) > 0
        assert ours == theirs, rel
