"""Quarantine recovery (dead-letter replay): re-validate quarantined rows
under a changed config and apply newly-valid events as a normal exactly-once
commit — the reference's fix-parser-then-reprocess lifecycle
(/root/reference/etl/etl.go TaskError → task retry) lifted to rows."""

import os

import pandas as pd
import pytest

from etl_ray.config import EngineConfig
from etl_ray.pipelines import analogs as A
from etl_ray.pipelines.replay import recover_quarantine, replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def _events_lww(max_value=None) -> pd.DataFrame:
    """Pure-pandas LWW oracle over the events table: deletes always apply,
    upserts only when value <= max_value (None = no limit)."""
    ev = pd.read_parquet(os.path.join(SF_DIR, "events.parquet"))
    ev = ev.sort_values("event_id")
    if max_value is not None:
        keep = (ev["event_type"] == "error") | ev["value"].isna() \
            | (ev["value"] <= max_value)
        ev = ev[keep]
    last = ev.groupby(ev["user_id"].astype(str), sort=True).tail(1)
    live = last[last["event_type"] != "error"]
    out = pd.DataFrame(
        {
            "doc_id": live["user_id"].astype(str),
            "last_seq": live["event_id"].astype("int64"),
            "value": live["value"],
            "event_type": live["event_type"],
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _cfg(quarantine_over):
    return EngineConfig(num_partitions=8,
                        payload=A.events_payload(quarantine_over))


@pytest.mark.usefixtures("ray_session")
def test_recover_partial(tmp_path):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    A.events_to_changelog(SF_DIR, wal)
    replay(wal, lake, _cfg(300.0))
    m0 = Manifest.load(lake)
    assert m0.quarantine_files, "scenario needs a non-empty quarantine"
    n_quar = m0.lineage["quarantined"]
    assert n_quar > 0

    cs = recover_quarantine(lake, _cfg(600.0))
    assert cs is not None
    # recovery re-validated exactly the quarantined rows
    assert cs.events_in == n_quar
    assert cs.valid == cs.events_in - cs.quarantined
    assert cs.valid > 0

    m1 = Manifest.load(lake)
    assert m1.version == m0.version + 1
    # quarantine REPLACED by the still-invalid remainder
    assert m1.lineage["quarantined"] == cs.quarantined
    assert len(m1.quarantine_files) == (1 if cs.quarantined else 0)
    # applied_through watermark untouched — recovery is not a WAL commit
    assert m1.applied_through_segment == m0.applied_through_segment
    assert m1.record.get("recovery") is True

    # recovered events joined LWW with their ORIGINAL sequence numbers
    got = A.lake_final_state(lake)
    exp = _events_lww(600.0)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp)

    # idempotent: nothing newly valid under the same config → no-op,
    # manifest unflipped
    assert recover_quarantine(lake, _cfg(600.0)) is None
    m2 = Manifest.load(lake)
    assert m2.version == m1.version
    assert m2.quarantine_files == m1.quarantine_files


@pytest.mark.usefixtures("ray_session")
def test_recover_full_matches_unfiltered_replay(tmp_path):
    wal = str(tmp_path / "wal")
    lake = str(tmp_path / "lake")
    A.events_to_changelog(SF_DIR, wal)
    replay(wal, lake, _cfg(300.0))
    cs = recover_quarantine(lake, _cfg(None))
    assert cs is not None and cs.quarantined == 0
    m = Manifest.load(lake)
    assert m.quarantine_files == []
    # identical to a replay that never quarantined anything
    got = A.lake_final_state(lake)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), _events_lww())


@pytest.mark.usefixtures("ray_session")
def test_recover_noop_paths(tmp_wal, tmp_lake, tmp_path):
    from etl_ray.config import TokensPayload

    # empty quarantine → None
    generate_changelog(tmp_wal, n_events=300, n_segments=1, n_base_docs=0,
                       seed=3, vocab=100)
    c = EngineConfig(num_partitions=4,
                     payload=TokensPayload(vocab_size=100))
    replay(tmp_wal, tmp_lake, c)
    assert Manifest.load(tmp_lake).quarantine_files == []
    assert recover_quarantine(tmp_lake, c) is None

    # structurally-corrupt rows (unknown op) can never recover → None and
    # the manifest stays byte-stable
    wal2, lake2 = str(tmp_path / "w2"), str(tmp_path / "l2")
    generate_changelog(wal2, n_events=400, n_segments=1, n_base_docs=0,
                       seed=15, vocab=100, corrupt_frac=0.1)
    replay(wal2, lake2, c)
    m0 = Manifest.load(lake2)
    assert m0.quarantine_files
    assert recover_quarantine(lake2, c) is None
    m1 = Manifest.load(lake2)
    assert m1.version == m0.version
    assert m1.quarantine_files == m0.quarantine_files


def _write_segment(wal, n, rows):
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(wal, exist_ok=True)
    pq.write_table(pa.Table.from_pylist(rows, schema=pa.schema([
        ("op", pa.string()), ("doc_id", pa.string()),
        ("sequence_number", pa.int64()), ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()), ("source", pa.string())])),
        os.path.join(wal, f"seg-{n:05d}.parquet"))


def _columns(lake, rel):
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(lake, rel)).schema_arrow.names


@pytest.mark.parametrize("rows_per_range", [None, 2])
@pytest.mark.usefixtures("ray_session")
def test_compaction_keeps_delete_a_quarantined_event_loses_to(
        tmp_path, monkeypatch, rows_per_range):
    """Y is inserted at seq 20 with an out-of-vocab token (quarantined) and
    deleted at seq 21. A compaction before recovery must keep Y's
    tombstone, or recovering the older insert brings Y back."""
    import pyarrow.parquet as pq

    from etl_ray.config import TokensPayload
    from etl_ray.lake import read_lake
    from etl_ray.oracle import oracle_replay
    from etl_ray.pipelines import compaction
    from etl_ray.pipelines.compaction import compact

    if rows_per_range is not None:
        monkeypatch.setattr(compaction, "ROWS_PER_RANGE", rows_per_range)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")

    def ev(op, doc, seq, tok=1):
        if op == "delete":
            return {"op": op, "doc_id": doc, "sequence_number": seq}
        return {"op": op, "doc_id": doc, "sequence_number": seq,
                "tokens": [tok, 2], "n_tok": 2, "source": "s"}

    _write_segment(wal, 0, [ev("insert", f"d{i:02d}", i) for i in range(20)]
                   + [ev("insert", "Y", 20, tok=10)])
    _write_segment(wal, 1, [ev("delete", "Y", 21), ev("update", "d03", 22),
                            ev("delete", "d05", 23)])
    paths = sorted(os.path.join(wal, f) for f in os.listdir(wal))

    def cfg(vocab):
        return EngineConfig(num_partitions=2, max_salt=1,
                            payload=TokensPayload(vocab_size=vocab))

    def live(lake):
        return sorted(read_lake(lake).to_pandas()["doc_id"])

    replay(wal, lake, cfg(10), segments_per_commit=1)
    compact(lake, cfg(10), force=True)
    m = Manifest.load(lake)
    assert m.quarantine_files
    # Y's base keeps its tombstone (and op) while the quarantine holds Y
    bases = [pq.read_table(os.path.join(lake, p.files[0]))
             for p in m.partitions.values()]
    assert any("op" in b.column_names and {"doc_id": "Y", "op": "delete"}
               in b.select(["doc_id", "op"]).to_pylist() for b in bases)
    if rows_per_range is not None:
        # a multi-range base keeps op while any doc_id is held
        assert all("op" in b.column_names for b in bases)
        # each base has one row group per range
        assert any(pq.ParquetFile(os.path.join(lake, p.files[0]))
                   .num_row_groups > 1 for p in m.partitions.values())
    assert "Y" not in live(lake)
    assert recover_quarantine(lake, cfg(11)) is not None
    exp = oracle_replay(paths, vocab=11)
    assert "Y" not in exp["doc_id"].to_pylist()
    assert live(lake) == sorted(exp["doc_id"].to_pylist())

    # with the quarantine empty, the next compaction (of the partition
    # recovery wrote to) drops the tombstones and the op column
    assert compact(lake, cfg(11), force=True)["compacted_partitions"] == 1
    m = Manifest.load(lake)
    assert m.quarantine_files == []
    assert [p for p in m.partitions.values() if p.base_gen == m.version
            and "op" not in _columns(lake, p.files[0])]
    assert live(lake) == sorted(exp["doc_id"].to_pylist())


def _assert_lineage_invariant(lake):
    lin = Manifest.load(lake).lineage
    assert lin["events_in"] == lin["valid"] + lin["quarantined"], lin
    return lin


@pytest.mark.usefixtures("ray_session")
def test_lineage_invariant_after_every_commit_kind(tmp_path):
    """``events_in == valid + quarantined`` after a replay, a partial and a
    full recovery, and a bootstrap followed by a replay. Recovery moves
    events from quarantined to valid and leaves ``events_in`` alone."""
    import pyarrow.parquet as pq

    from etl_ray.config import TokensPayload
    from etl_ray.pipelines.replay import bootstrap
    from etl_ray.sources.generator import generate_base

    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    n_events = sum(pq.read_metadata(p).num_rows
                   for p in A.events_to_changelog(SF_DIR, wal))
    replay(wal, lake, _cfg(100.0))
    lin0 = _assert_lineage_invariant(lake)
    assert lin0["events_in"] == n_events and lin0["quarantined"] > 0
    partial = recover_quarantine(lake, _cfg(200.0))
    assert 0 < partial.quarantined < partial.events_in
    lin1 = _assert_lineage_invariant(lake)
    assert lin1["events_in"] == n_events
    assert lin1["quarantined"] == partial.quarantined
    assert lin1["valid"] == lin0["valid"] + partial.valid
    assert recover_quarantine(lake, _cfg(None)).quarantined == 0
    lin2 = _assert_lineage_invariant(lake)
    assert (lin2["events_in"], lin2["valid"], lin2["quarantined"]) \
        == (n_events, n_events, 0)

    base, wal2, lake2 = (str(tmp_path / "base.parquet"),
                         str(tmp_path / "w2"), str(tmp_path / "l2"))
    generate_base(base, n_docs=100, seed=5, vocab=100)
    c = EngineConfig(num_partitions=4, payload=TokensPayload(vocab_size=100))
    bootstrap(base, lake2, c)
    lin = _assert_lineage_invariant(lake2)
    assert (lin["events_in"], lin["valid"], lin["quarantined"]) == (0, 0, 0)
    assert lin["rows_written"] == 100
    generate_changelog(wal2, n_events=400, n_segments=2, n_base_docs=100,
                       seed=6, vocab=100, corrupt_frac=0.05)
    replay(wal2, lake2, c)
    lin = _assert_lineage_invariant(lake2)
    assert lin["events_in"] == 400 and lin["quarantined"] > 0


def _lake_files(lake):
    import hashlib

    out = {}
    for d, _, fs in os.walk(lake):
        for f in fs:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, lake)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


@pytest.mark.usefixtures("ray_session")
def test_recover_refuses_a_different_partition_count(tmp_path):
    """The partition count is fixed when the lake is created: recovery
    under another count raises ``ValueError`` and writes nothing."""
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    A.events_to_changelog(SF_DIR, wal)
    replay(wal, lake, _cfg(300.0))
    m0, files0 = Manifest.load(lake), _lake_files(lake)
    assert m0.quarantine_files
    other = EngineConfig(num_partitions=4,
                         payload=A.events_payload(600.0))
    with pytest.raises(ValueError, match="partition count is fixed"):
        recover_quarantine(lake, other)
    m1 = Manifest.load(lake)
    assert m1.version == m0.version
    assert m1.quarantine_files == m0.quarantine_files
    assert _lake_files(lake) == files0
