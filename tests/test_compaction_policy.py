"""Size-ratio compaction: a lone delta is promoted to base (unless
forced), delta runs fold into one run (minor) while they are smaller than
the base, and a base is rewritten (major) only once they reach its size or
under ``force``."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.config import EngineConfig, TokensPayload
from etl_ray.lake import read_lake, write_file
from etl_ray.oracle import oracle_replay
from etl_ray.pipelines import compaction
from etl_ray.pipelines.compaction import compact
from etl_ray.pipelines.replay import recover_quarantine, replay, replay_once
from etl_ray.sources.generator import generate_changelog
from etl_ray.stages.merge import merge_runs
from etl_ray.state.manifest import Manifest

VOCAB = 1000

pytestmark = pytest.mark.usefixtures("ray_session")


def cfg(**kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("max_salt", 1)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


def state(lake, version=None):
    t = pa.concat_tables(
        list(read_lake(lake, include_seq=True, version=version)
             .iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default")
    return t.sort_by("doc_id")


def assert_oracle(lake, paths, vocab=VOCAB):
    got = state(lake)
    exp = oracle_replay(paths, vocab=vocab)
    assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
    assert got["sequence_number"].to_pylist() == \
        exp["sequence_number"].to_pylist()
    assert got["tokens"].to_pylist() == exp["tokens"].to_pylist()


def big_then_small(wal, *, big=2000, small=60, n_small=6, seed=7,
                   evolve_at_segment=None):
    """A WAL whose first segment is much larger than the rest, so the base
    it becomes outweighs the later deltas."""
    paths = generate_changelog(wal, n_events=big, n_segments=1, seed=seed,
                               vocab=VOCAB)
    return paths + generate_changelog(
        wal, n_events=small * n_small, n_segments=n_small, seed=seed,
        vocab=VOCAB, n_base_docs=big // 2, start_sequence=big,
        start_segment=1, evolve_at_segment=evolve_at_segment)


def layout(lake):
    m = Manifest.load(lake)
    return {k: (p.base_gen, list(p.files)) for k, p in m.partitions.items()}


def test_default_policy_folds_runs_and_rarely_rewrites_bases(tmp_path):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = generate_changelog(wal, n_events=48 * 120, n_segments=48,
                               seed=31, vocab=VOCAB)
    c = cfg()
    rewrites = {}
    kinds = {"promoted": 0, "minor": 0, "major": 0}
    for i in range(1, 49):
        replay_once(wal, lake, c, max_segments=1)
        if i % 8:
            continue
        res = compact(lake, c)
        assert res["compacted_partitions"] == 4
        for k in kinds:
            kinds[k] += res[k]
        m = Manifest.load(lake)
        for k, p in m.partitions.items():
            # at most a base and one delta run right after each compaction
            assert p.base_gen > 0 and 1 <= len(p.files) <= 2
            assert os.path.basename(p.files[0]).startswith("base-g")
            if len(p.files) == 2:
                assert os.path.basename(p.files[1]) == \
                    f"delta-g{m.version}-p{k}.parquet"
            if p.base_gen == m.version:
                rewrites[k] = rewrites.get(k, 0) + 1
        assert_oracle(lake, paths[:i])
    assert kinds["minor"] > 0 and kinds["promoted"] == 0
    # six rounds; the earlier policy rewrote every base in each
    assert max(rewrites.values()) <= 3


def test_minor_run_keeps_a_tombstone_a_quarantined_event_loses_to(
        tmp_path):
    """Y is inserted with an out-of-vocab token (quarantined) and then
    deleted. The delete lands in a minor run beside an untouched base; on
    recovery the older insert must still lose, before and after the next
    major compaction."""
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    os.makedirs(wal)
    schema = pa.schema([
        ("op", pa.string()), ("doc_id", pa.string()),
        ("sequence_number", pa.int64()), ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()), ("source", pa.string())])

    def ev(op, doc, seq, toks=(1, 2)):
        if op == "delete":
            return {"op": op, "doc_id": doc, "sequence_number": seq}
        return {"op": op, "doc_id": doc, "sequence_number": seq,
                "tokens": list(toks), "n_tok": len(toks), "source": "s"}

    segs = [
        [ev("insert", f"d{i:03d}", i,
            toks=[(i * 31 + j * 17) % 9 + 1 for j in range(200)])
         for i in range(300)],
        [ev("insert", "Y", 300, toks=(10, 2)), ev("update", "d001", 301)],
        [ev("delete", "Y", 302), ev("update", "d002", 303)],
        [ev("update", "d003", 304)],
    ]
    paths = []
    for n, rows in enumerate(segs):
        paths.append(os.path.join(wal, f"seg-{n:05d}.parquet"))
        pq.write_table(pa.Table.from_pylist(rows, schema=schema), paths[-1])

    def c(vocab):
        return EngineConfig(num_partitions=1, max_salt=1,
                            payload=TokensPayload(vocab_size=vocab))

    def live(lake):
        return state(lake)["doc_id"].to_pylist()

    replay_once(wal, lake, c(10), max_segments=1)
    assert compact(lake, c(10), min_deltas=1)["promoted"] == 1
    replay(wal, lake, c(10), segments_per_commit=1)
    assert Manifest.load(lake).quarantine_files
    assert compact(lake, c(10), min_deltas=3)["minor"] == 1
    (base_gen, files), = layout(lake).values()
    assert base_gen == 2 and len(files) == 2  # the promoted delta
    run = pq.read_table(os.path.join(lake, files[1]))
    assert {"doc_id": "Y", "op": "delete"} in \
        run.select(["doc_id", "op"]).to_pylist()
    assert "Y" not in live(lake)

    assert recover_quarantine(lake, c(11)) is not None
    exp = oracle_replay(paths, vocab=11)["doc_id"].to_pylist()
    assert "Y" not in exp and live(lake) == exp
    assert compact(lake, c(11), force=True)["major"] == 1
    assert live(lake) == exp
    assert_oracle(lake, paths, vocab=11)


def test_force_rewrites_a_lone_delta_promotion_keeps_it(tmp_path):
    """Under ``force`` a lone delta is rewritten into a base like any
    partition; with ``min_deltas=1`` and no force it is promoted in place,
    with no data file written."""
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = generate_changelog(wal, n_events=400, n_segments=2, seed=17,
                               vocab=VOCAB)
    c = cfg(num_partitions=2)
    replay_once(wal, lake, c, max_segments=1)
    deltas = layout(lake)
    res = compact(lake, c, force=True)
    assert (res["major"], res["promoted"]) == (2, 0)
    assert res["bytes_written"] > 0
    v = Manifest.load(lake).version
    for k, (gen, files) in layout(lake).items():
        assert gen == v and files == [f"part={k}/base-g{v}-p{k}.parquet"]
    assert_oracle(lake, paths[:1])

    lake2 = str(tmp_path / "lake2")
    replay_once(wal, lake2, c, max_segments=1)
    res = compact(lake2, c, min_deltas=1)
    assert (res["promoted"], res["bytes_written"]) == (2, 0)
    assert {k: files for k, (_, files) in layout(lake2).items()} == \
        {k: files for k, (_, files) in deltas.items()}
    assert all(gen == 2 for gen, _ in layout(lake2).values())
    assert_oracle(lake2, paths[:1])


def test_time_travel_gc_and_prune_across_promote_minor_major(tmp_path):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    big_then_small(wal, seed=11)
    c = cfg(num_partitions=2)
    snaps = {}

    def snap():
        v = Manifest.load(lake).version
        snaps[v] = state(lake)

    replay_once(wal, lake, c, max_segments=1)
    snap()
    assert compact(lake, c, min_deltas=1)["promoted"] == 2
    snap()
    for _ in range(3):
        replay_once(wal, lake, c, max_segments=1)
        snap()
    assert compact(lake, c, min_deltas=3)["minor"] == 2
    snap()
    replay(wal, lake, c, segments_per_commit=1)
    snap()
    assert compact(lake, c, force=True)["major"] == 2
    snap()
    for v, want in snaps.items():
        assert state(lake, version=v).equals(want), v

    m = Manifest.load(lake)
    listed = set()
    for v in snaps:
        listed.update(Manifest.load(lake, version=v).live_files())
    assert m.gc() == []
    assert all(os.path.exists(os.path.join(lake, f)) for f in listed)
    for v, want in snaps.items():
        assert state(lake, version=v).equals(want), v

    live = set(m.live_files())
    removed = set(Manifest.load(lake).prune(keep_last=1))
    assert removed == listed - live
    assert state(lake).equals(snaps[m.version])


def test_schema_evolution_between_two_minor_compactions(tmp_path):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = big_then_small(wal, seed=12, evolve_at_segment=4)
    c = cfg(num_partitions=2)
    replay_once(wal, lake, c, max_segments=1)
    compact(lake, c, force=True)
    for _ in range(3):  # segments 1-3, before ``lang``
        replay_once(wal, lake, c, max_segments=1)
    assert compact(lake, c, min_deltas=3)["minor"] == 2
    assert_oracle(lake, paths[:4])
    replay(wal, lake, c, segments_per_commit=1)  # segments 4-6 add ``lang``
    assert compact(lake, c, min_deltas=3)["minor"] == 2
    assert_oracle(lake, paths)
    m = Manifest.load(lake)
    assert "lang" in m.schema.names
    # the evolved run sits beside the pre-evolution base
    for p in m.partitions.values():
        assert len(p.files) == 2
        assert "lang" not in pq.read_schema(
            os.path.join(lake, p.files[0])).names
        assert "lang" in pq.read_schema(
            os.path.join(lake, p.files[1])).names


def test_crashed_compaction_reruns_onto_the_same_files(tmp_path,
                                                       monkeypatch):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = big_then_small(wal, seed=13)
    c = cfg(num_partitions=2)
    replay_once(wal, lake, c, max_segments=1)
    compact(lake, c, force=True)
    replay(wal, lake, c, segments_per_commit=1)

    def data_files():
        return {os.path.relpath(os.path.join(d, f), lake)
                for d, _, fs in os.walk(lake) for f in fs
                if f.endswith(".parquet")}

    before = data_files()
    version = Manifest.load(lake).version

    def crash(self, record):
        raise RuntimeError("crash before the manifest flip")

    monkeypatch.setattr(Manifest, "commit", crash)
    with pytest.raises(RuntimeError):
        compact(lake, c, min_deltas=3)
    monkeypatch.undo()
    written = data_files() - before
    assert written and Manifest.load(lake).version == version
    assert compact(lake, c, min_deltas=3)["minor"] == 2
    assert data_files() - before == written
    assert set(Manifest.load(lake).live_files()) - before == written
    assert_oracle(lake, paths)


def test_minor_merge_over_several_ranges(tmp_path, monkeypatch):
    monkeypatch.setattr(compaction, "ROWS_PER_RANGE", 8)
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = big_then_small(wal, seed=14)
    c = cfg(num_partitions=1)
    replay_once(wal, lake, c, max_segments=1)
    compact(lake, c, force=True)
    replay(wal, lake, c, segments_per_commit=1)
    assert compact(lake, c)["minor"] == 1
    (_, files), = layout(lake).values()
    run = pq.ParquetFile(os.path.join(lake, files[1]))
    assert run.num_row_groups > 1
    t = run.read()
    assert "delete" in t["op"].to_pylist()
    assert t["doc_id"].to_pylist() == sorted(t["doc_id"].to_pylist())
    assert_oracle(lake, paths)


def _earlier_policy_compact(lake):
    """The earlier policy, as it left a lake: every partition's files
    LWW-merged into one ``base-g<N>`` (tombstones and ``op`` dropped), and a
    commit record without the per-kind counts."""
    m = Manifest.load(lake)
    m.version += 1
    rows = 0
    for k, p in m.partitions.items():
        tables = [pq.read_table(os.path.join(lake, f)) for f in p.files]
        merged = merge_runs(tables, drop_deletes=True,
                            target_schema=m.schema).drop_columns(["op"])
        rel = os.path.join(f"part={k}", f"base-g{m.version}-p{k}.parquet")
        rows += write_file(merged, os.path.join(lake, rel))
        p.files, p.base_gen = [rel], m.version
    m.commit({"commit_id": f"compact-g{m.version}",
              "compacted_partitions": len(m.partitions), "rows": rows})


def test_lake_written_by_the_earlier_policy_replays_and_compacts(tmp_path):
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = big_then_small(wal, seed=15)
    c = cfg(num_partitions=2)
    replay_once(wal, lake, c, max_segments=2)
    _earlier_policy_compact(lake)
    assert_oracle(lake, paths[:2])
    replay(wal, lake, c, segments_per_commit=1)
    res = compact(lake, c)
    assert res["compacted_partitions"] == 2 and res["minor"] == 2
    assert_oracle(lake, paths)
    assert compact(lake, c, force=True)["major"] == 2
    assert_oracle(lake, paths)


def test_major_base_keeps_op_only_with_a_held_tombstone(tmp_path):
    """1 % corrupt events, no recovery: a base whose partition holds no
    held delete has no op column."""
    wal, lake = str(tmp_path / "wal"), str(tmp_path / "lake")
    paths = generate_changelog(wal, n_events=2000, n_segments=4, seed=16,
                               vocab=VOCAB, corrupt_frac=0.01)
    c = cfg(num_partitions=8)
    replay(wal, lake, c, segments_per_commit=1)
    assert Manifest.load(lake).quarantine_files
    assert compact(lake, c, force=True)["major"] == 8
    has_op = []
    for p in Manifest.load(lake).partitions.values():
        t = pq.read_table(os.path.join(lake, p.files[0]))
        held = "op" in t.column_names and "delete" in t["op"].to_pylist()
        assert ("op" in t.column_names) == held
        has_op.append(held)
    assert not all(has_op)
    assert_oracle(lake, paths)
