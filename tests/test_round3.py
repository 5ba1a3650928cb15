"""Round-3 hardening: dup-heavy lineage counts, ShiftRule lossy-cast
guard, empty-batch/all-corrupt decoder schemas, IVF pruning, capped LSH
embedding pairs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from etl_ray.config import EngineConfig, ShiftRule, TokensPayload
from etl_ray.pipelines.replay import replay
from etl_ray.sources.generator import generate_changelog
from etl_ray.state.manifest import Manifest

VOCAB = 1000


def cfg(**kw):
    kw.setdefault("num_partitions", 8)
    kw.setdefault("max_salt", 4)
    kw.setdefault("batch_size", 256)
    kw.setdefault("payload", TokensPayload(vocab_size=VOCAB))
    return EngineConfig(**kw)


# ---------------------------------------------- dup-heavy lineage counts
@pytest.mark.usefixtures("ray_session")
def test_events_in_counts_precollapse_rows(tmp_wal, tmp_lake):
    """A dup-heavy backlog, whose winners are far fewer than its events,
    must still report the TRUE event count in lineage (ADVICE r02:
    failure-ratio denominators and salt detection read it)."""
    generate_changelog(tmp_wal, n_events=3000, n_segments=3, vocab=VOCAB,
                       seed=5, update_frac=0.8, insert_frac=0.1)
    stats = replay(tmp_wal, tmp_lake, cfg())
    assert sum(s.events_in for s in stats) == 3000
    m = Manifest.load(tmp_lake)
    assert m.lineage["events_in"] == 3000


@pytest.mark.usefixtures("ray_session")
def test_precollapse_does_not_trip_failure_gate(tmp_wal, tmp_lake):
    """Counting winners instead of events as the failure-ratio denominator
    could abort a dup-heavy clean backlog spuriously; the true denominator
    never can."""
    generate_changelog(tmp_wal, n_events=3000, n_segments=1, vocab=VOCAB,
                       seed=5, update_frac=0.8, insert_frac=0.1)
    c = cfg(max_failure_ratio=0.05)
    replay(tmp_wal, tmp_lake, c)  # must not raise CommitAborted


# ------------------------------------------------------- ShiftRule guard
def test_shiftrule_fractional_delta_on_int_raises():
    t = pa.table({"ts": pa.array([10, 20], pa.int64()),
                  "k": pa.array(["a", "b"])})
    with pytest.raises(ValueError, match="not representable"):
        ShiftRule("ts", 0.5).apply(t)
    # integral float delta is fine
    out = ShiftRule("ts", 2.0).apply(t)
    assert out["ts"].to_pylist() == [12, 22]
    # fractional delta on a float column is fine
    tf = pa.table({"ts": pa.array([1.0, 2.0])})
    assert ShiftRule("ts", 0.5).apply(tf)["ts"].to_pylist() == [1.5, 2.5]


# ------------------------------------- all-corrupt batches keep full schema
def test_pcap_all_corrupt_batch_keeps_schema():
    from etl_ray.pcaplite import PcapPacketDecoder

    batch = pa.table({
        "member": pa.array(["bad.pcap"]),
        "data": pa.array([b"not a pcap"], pa.binary()),
        "skipped": pa.array([False]),
    })
    out = PcapPacketDecoder()(batch)
    assert len(out) == 0
    for col in ["member", "packet_index", "ts_sec", "ts_usec", "src_ip",
                "dst_ip", "ttl", "proto", "ip_payload_len"]:
        assert col in out.column_names
    # downstream projection of per-packet columns must not KeyError
    out.select(["ts_sec", "proto"])


def test_snaplog_all_corrupt_batch_keeps_schema():
    from etl_ray.snaplog import SnaplogDecoder

    batch = pa.table({
        "member": pa.array(["bad.snaplog"]),
        "data": pa.array([b"garbage"], pa.binary()),
        "skipped": pa.array([True]),
    })
    dec = SnaplogDecoder(delta_fields=["DataOctetsOut", "SegsOut"])
    out = dec(batch)
    assert len(out) == 0
    for col in ["member", "log_time", "snap_index", "SnapTimeStamp",
                "DataOctetsOut", "d_DataOctetsOut", "SegsOut", "d_SegsOut"]:
        assert col in out.column_names


# ---------------------------------------------------------- IVF + topk ops
@pytest.mark.usefixtures("ray_session")
def test_ivf_empty_block_and_matches_bruteforce():
    """Empty upstream blocks must not crash (ADVICE r02), and with
    nprobe=nlist the pruned IVF equals exact brute force."""
    import ray.data as rd

    from etl_ray.ops.similarity import cosine_topk, ivf_topk

    rng = np.random.default_rng(3)
    n, d = 300, 16
    M = rng.standard_normal((n, d))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(M.reshape(-1), pa.float32()), d).cast(
                pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    # filter that leaves some blocks empty
    ds_f = ds.repartition(8).filter(expr="vec_id >= 290")
    q_ids = np.array([0, 1], dtype=np.int64)
    Q = M[:2]
    out = ivf_topk(ds_f, q_ids, Q, k=3, nlist=4, nprobe=2, concurrency=2)
    assert len(out) > 0  # no crash on empty blocks
    exact = cosine_topk(ds, q_ids, Q, k=5, concurrency=2)
    full = ivf_topk(ds, q_ids, Q, k=5, nlist=4, nprobe=4, concurrency=2)
    pd.testing.assert_frame_equal(
        full.reset_index(drop=True), exact.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_lsh_pairs_cap_drops_degenerate_bucket(capsys):
    """All-identical corpus = one degenerate LSH bucket: with a cap it is
    dropped with a printed count instead of going O(b^2)."""
    import ray.data as rd

    from etl_ray.ops.similarity import lsh_bucketed_pairs

    n, d = 60, 16
    base = np.ones((n, d)) + np.random.default_rng(1).standard_normal(
        (n, d)) * 1e-6
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(base.reshape(-1), pa.float32()), d).cast(
                pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    out = lsh_bucketed_pairs(ds, threshold=0.9, n_planes=4, dim=d,
                             max_bucket_ids=10).to_pandas()
    assert len(out) == 0  # the only bucket was over the cap → dropped
    # and without the cap the same corpus yields all pairs
    out2 = lsh_bucketed_pairs(ds, threshold=0.9, n_planes=4, dim=d,
                              max_bucket_ids=10_000).to_pandas()
    assert len(out2) == n * (n - 1) // 2


# ------------------------------------------------------------- URI sources
@pytest.mark.usefixtures("ray_session")
def test_file_uri_sources_match_local_paths(tmp_path, tmp_lake):
    """file:// URIs route through pyarrow.fs and behave exactly like local
    paths for WAL listing, schema sniffing, archive reading, and a full
    replay (the object-store source path, reference storage.go:242-304)."""
    import io
    import tarfile

    from etl_ray.sources.archive import list_archives, read_archives
    from etl_ray.sources.wal import list_segments, segments_schema

    wal = tmp_path / "wal"
    wal.mkdir()
    generate_changelog(str(wal), n_events=500, n_segments=3, vocab=VOCAB,
                       seed=3)
    uri = f"file://{wal}"
    plain = list_segments(str(wal))
    via_uri = list_segments(uri)
    assert [s.number for s in via_uri] == [s.number for s in plain]
    assert all(s.path.startswith("file:///") for s in via_uri)
    assert [s.size for s in via_uri] == [s.size for s in plain]
    assert segments_schema([s.path for s in via_uri]).equals(
        segments_schema([s.path for s in plain]))

    arch_dir = tmp_path / "archives"
    arch_dir.mkdir()
    with tarfile.open(arch_dir / "a.tgz", "w:gz") as tf:
        info = tarfile.TarInfo("m1.jsonl")
        blob = b'{"x": 1}\n'
        info.size = len(blob)
        tf.addfile(info, io.BytesIO(blob))
    plain_a = list_archives(str(arch_dir))
    uri_a = list_archives(f"file://{arch_dir}")
    assert len(plain_a) == len(uri_a) == 1
    got = read_archives(uri_a).to_pandas()
    assert list(got["member"]) == ["m1.jsonl"]
    assert got["data"][0] == blob

    # full replay straight from a file:// WAL
    replay(uri, tmp_lake, cfg())
    from etl_ray.lake import read_lake

    assert len(read_lake(tmp_lake).to_pandas()) > 0


# ------------------------------------------------------------ metrics
def test_histogram_merge_and_prometheus_lines():
    from etl_ray.state.stats import Histogram

    h = Histogram(buckets=(1.0, 10.0))
    h.observe_many([0.5, 5.0, 50.0])
    assert h.counts == [1, 1, 1] and h.n == 3
    h2 = Histogram.from_json(h.to_json())
    h2.merge(h)
    assert h2.n == 6 and h2.counts == [2, 2, 2]
    lines = h2.prometheus_lines("etl_ray_x_seconds")
    assert 'etl_ray_x_seconds_bucket{le="1.0"} 2' in lines
    assert 'etl_ray_x_seconds_bucket{le="+Inf"} 6' in lines
    assert lines[-1] == "etl_ray_x_seconds_count 6"


@pytest.mark.usefixtures("ray_session")
def test_metrics_endpoint_scrape(tmp_wal, tmp_lake):
    """Replay writes per-stage histograms into the lineage; /metrics
    renders counters + merged histograms as Prometheus text."""
    import threading
    import urllib.request

    from etl_ray.service import WorkerService

    generate_changelog(tmp_wal, n_events=800, n_segments=2, vocab=VOCAB,
                       seed=9)
    replay(tmp_wal, tmp_lake, cfg())
    svc = WorkerService()
    t = threading.Thread(target=svc.serve_forever, daemon=True)
    t.start()
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{svc.port}/metrics?lake={tmp_lake}") as r:
            assert r.headers["Content-Type"].startswith("text/plain")
            text = r.read().decode()
    finally:
        svc.shutdown()
    assert "etl_ray_events_in_total 800" in text
    assert "# TYPE etl_ray_shard_apply_seconds histogram" in text
    assert "etl_ray_shard_rows_count" in text
    # bucket counts are cumulative and end at the total observation count
    import re as _re

    m = _re.search(r'etl_ray_shard_rows_bucket\{le="\+Inf"\} (\d+)', text)
    n = _re.search(r"etl_ray_shard_rows_count (\d+)", text)
    assert m and n and m.group(1) == n.group(1)


@pytest.mark.usefixtures("ray_session")
def test_schema_endpoint(tmp_wal, tmp_lake, tmp_path):
    """/schema serves the data dictionary of the committed schema: no
    fields on an empty lake, every field with its type on a replayed one."""
    import json as _json
    import threading
    import urllib.request

    from etl_ray.service import WorkerService

    svc = WorkerService()
    t = threading.Thread(target=svc.serve_forever, daemon=True)
    t.start()

    def get(lake):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{svc.port}/schema?lake={lake}") as r:
            return _json.loads(r.read())

    try:
        empty = get(str(tmp_path / "empty"))
        generate_changelog(tmp_wal, n_events=300, n_segments=1,
                           vocab=VOCAB, seed=11)
        replay(tmp_wal, tmp_lake, cfg())
        full = get(tmp_lake)
    finally:
        svc.shutdown()
    assert empty == {"version": 0, "fields": []}
    assert full["version"] == 1
    types = {f["path"]: f["type"] for f in full["fields"]}
    assert types["doc_id"] == "string"
    assert types["sequence_number"] == "int64"
    assert "tokens" in types
    assert all(f["description"] for f in full["fields"]
               if f["path"] == "doc_id")


# ------------------------------------------- exchange bytes-per-event work
@pytest.mark.usefixtures("ray_session")
def test_exchange_root_fragments_match_oracle(tmp_wal, tmp_path):
    """With an ``exchange_root`` outside the lake, the replay matches the
    oracle, corrupt rows are still quarantined through the exchange, and
    no fragment is left under the root after the commit."""
    import os

    from etl_ray.lake import read_lake, read_quarantine
    from etl_ray.oracle import oracle_replay

    paths = generate_changelog(tmp_wal, n_events=2000, n_segments=2,
                               vocab=VOCAB, seed=21, corrupt_frac=0.05)
    lake = str(tmp_path / "lake")
    root = tmp_path / "x"
    replay(tmp_wal, lake, cfg(exchange_root=str(root)))
    got = read_lake(lake, include_seq=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    exp = oracle_replay(paths, vocab=VOCAB).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["sequence_number"].tolist() == \
        exp["sequence_number"].tolist()
    assert [list(t) for t in got["tokens"]] == \
        [list(t) for t in exp["tokens"]]
    assert len(read_quarantine(lake)) > 0
    assert not os.path.exists(root) or not os.listdir(root)


@pytest.mark.usefixtures("ray_session")
def test_ivf_build_query_matches_unbuilt():
    """The pre-built cell_id path (assignment paid once at build) must
    return exactly the same top-k as per-batch assignment."""
    import ray.data as rd

    from etl_ray.ops.similarity import ivf_build, ivf_topk

    rng = np.random.default_rng(8)
    n, d = 400, 16
    M = rng.standard_normal((n, d)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(M.reshape(-1)), d).cast(pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    q_ids = np.arange(3, dtype=np.int64)
    Q = M[:3].astype(np.float64)
    plain = ivf_topk(ds, q_ids, Q, k=4, nlist=8, nprobe=3, seed=5,
                     concurrency=2)
    indexed, C = ivf_build(ds, dim=d, nlist=8, seed=5, concurrency=2)
    built = ivf_topk(indexed, q_ids, Q, k=4, nprobe=3, centroids=C,
                     concurrency=2)
    pd.testing.assert_frame_equal(built.reset_index(drop=True),
                                  plain.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_bucket_self_pairs_multikey_hot_drop_is_partial():
    """Multi-column bucket keys: only the over-cap bucket's rows are
    dropped; other buckets still pair (covers the vectorized MultiIndex
    drop path)."""
    import ray.data as rd

    from etl_ray.ops.dedup import _bucket_self_pairs

    rows = []
    # hot bucket (band=0, h=7): 5 members > cap 3; cool (band=1, h=9): 3
    for i in range(5):
        rows.append({"band": 0, "band_hash": 7, "doc_id": i})
    for i in range(5, 8):
        rows.append({"band": 1, "band_hash": 9, "doc_id": i})
    out = _bucket_self_pairs(rd.from_items(rows), ["band", "band_hash"],
                             "doc_id", 3).to_pandas()
    got = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    assert got == {(5, 6), (5, 7), (6, 7)}


@pytest.mark.usefixtures("ray_session")
def test_dup_clusters_by_quality_hand_case():
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.components import dup_clusters_by_quality

    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array(["a", "b", "x"], pa.string()),
        "id_b": pa.array(["b", "c", "y"], pa.string()),
    }))
    q = rd.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b", "c", "x", "y"], pa.string()),
        "n_words": pa.array([5, 9, 9, 3, 7], pa.int64()),
    }))
    out = (dup_clusters_by_quality(pairs, q).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # {a,b,c}: b and c tie at 9 -> min id b; {x,y}: y (7) beats x (3)
    kept = out[out.keep]["doc_id"].tolist()
    assert kept == ["b", "y"]
    assert out["component"].tolist() == ["a", "a", "a", "x", "x"]
