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
    assert m1.lineage["commits"][-1].get("recovery") is True

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
