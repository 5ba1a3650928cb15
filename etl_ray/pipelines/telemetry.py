"""Telemetry-format pipelines: sidestream text and snaplog binary archives
derived deterministically from the events table, run through the REAL
archive → parser path, and verifiable value-for-value by DuckDB SQL over the
same events (the driver's oracle contract).

The generators are test/bench harness adapters (driver-side pandas over the
tiny events table); the PIPELINES are the engine paths under test:
``read_archives → map_batches(parser/decoder)``.
"""

from __future__ import annotations

import io
import os
import tarfile

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from etl_ray.util import scratch_dir

SS_HEADER = ("K: cid PollTime LocalAddress LocalPort RemAddress RemPort "
             "StartTimeStamp StartTimeUsec DataBytesOut PktsOut")
SS_LOGTIME_NAME = "20170315T01:00:00Z"  # epoch 1489539600


def _events_frame(sf_dir: str) -> pd.DataFrame:
    t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                      columns=["event_id", "user_id", "value"])
    df = t.to_pandas().sort_values("event_id").reset_index(drop=True)
    df["cents"] = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    return df


def _tar_of(members) -> str:
    d = scratch_dir("telemetry_")
    path = os.path.join(d, "telemetry.tgz")
    with tarfile.open(path, "w:gz") as tf:
        for name, blob in members:
            info = tarfile.TarInfo(name)
            info.size = len(blob)
            tf.addfile(info, io.BytesIO(blob))
    return path


def generate_ss_archive(sf_dir: str) -> str:
    """One ``.web100`` sidestream file per user_id: one C: row per event
    (ordered by event_id), legacy header names, derived field values the
    oracle SQL can recompute."""
    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        lip = f"10.0.0.{int(user) % 200 + 1}"
        lines = [SS_HEADER]
        for r in g.itertuples(index=False):
            rip = f"192.0.2.{int(r.event_id) % 250 + 1}"
            lines.append(
                f"C: {int(user)} {int(r.event_id)} {lip} 80 {rip} "
                f"{5000 + int(r.event_id) % 1000} {int(r.event_id)} "
                f"{int(user) % 1_000_000} {int(r.cents)} "
                f"{int(r.event_id) % 997}"
            )
        name = f"{SS_LOGTIME_NAME}_{lip}_{int(user)}.web100"
        members.append((name, "\n".join(lines).encode()))
    return _tar_of(members)


def _payload_expander(datatype: str, spec):
    """map_batches stage factory: standard-column parsed rows → typed
    payload columns, expanded INSIDE the task (never json_normalize on the
    driver — r02 verdict item). ``spec`` maps output column → (payload
    key, pyarrow type)."""
    import json

    import pyarrow as pa

    schema = pa.schema([(name, typ) for name, (_, typ) in spec.items()])

    def expand(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = batch.filter(pc.and_(
            pc.is_null(batch["error"]),
            pc.equal(batch["datatype"], datatype)))
        if len(ok) == 0:
            return schema.empty_table()
        rows = [json.loads(p) for p in ok["payload"].to_pylist()]
        return pa.table(
            {name: pa.array([r.get(key) for r in rows], typ)
             for name, (key, typ) in spec.items()}, schema=schema)

    return expand


def ss_parse(sf_dir: str) -> pd.DataFrame:
    """Engine path: archive → member iter → SidestreamParser (1→N typed
    rows, canonical renames, StartTimeStamp+Usec combine). Payload
    expansion runs distributed in a map_batches stage."""
    import pyarrow as pa

    from etl_ray.parsers import parse_archives

    tar = generate_ss_archive(sf_dir)
    expand = _payload_expander("ss", {
        "cid": ("cid", pa.int64()),
        "poll_time": ("PollTime", pa.int64()),
        "local_address": ("LocalAddress", pa.string()),
        "rem_address": ("RemAddress", pa.string()),
        "rem_port": ("RemPort", pa.int64()),
        "start_time_stamp": ("StartTimeStamp", pa.int64()),
        "data_octets_out": ("DataOctetsOut", pa.int64()),
        "segs_out": ("SegsOut", pa.int64()),
        "log_time": ("log_time", pa.int64()),
    })
    out = parse_archives([tar]).map_batches(
        expand, batch_format="pyarrow").to_pandas()
    return out.sort_values(["cid", "poll_time"]).reset_index(drop=True)


SNAPLOG_FIELDS = [("SnapTimeStamp", "u32"), ("DataBytesOut", "u64"),
                  ("PktsOut", "u32")]


def generate_snaplog_archive(sf_dir: str) -> str:
    """One binary ``.snaplog`` per user_id: snapshots = the user's events in
    event_id order; DataBytesOut is the running cents total (a counter, like
    web100's monotone octet counters)."""
    from etl_ray.snaplog import write_snaplog

    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        cols = {
            "SnapTimeStamp": g["event_id"].to_numpy(np.int64),
            "DataBytesOut": np.cumsum(g["cents"].to_numpy(np.int64)),
            "PktsOut": g["event_id"].to_numpy(np.int64) % 997,
        }
        blob = write_snaplog(SNAPLOG_FIELDS, cols, logtime=1489539600)
        members.append((f"u{int(user)}.snaplog", blob))
    return _tar_of(members)


def snaplog_deltas(sf_dir: str) -> pd.DataFrame:
    """Engine path: archive → vectorized binary decode (np.frombuffer over
    the whole body) → per-connection delta stream (parser/ndt.go:389-450
    analog as np.diff)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.snaplog import SnaplogDecoder
    from etl_ray.sources.archive import read_archives

    tar = generate_snaplog_archive(sf_dir)
    ds = read_archives([tar]).map_batches(
        SnaplogDecoder(delta_fields=["DataOctetsOut", "SegsOut"]),
        batch_format="pyarrow",
    )

    def project(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch["member"].combine_chunks(),
                               r"u(?P<cid>\d+)\.snaplog")
        cid = pc.cast(pc.struct_field(hit, "cid"), pa.int64())
        return pa.table({
            "cid": cid,
            "snap_index": batch["snap_index"],
            "snap_time_stamp": batch["SnapTimeStamp"],
            "data_octets_out": batch["DataOctetsOut"],
            "segs_out": batch["SegsOut"],
            "d_data_octets_out": batch["d_DataOctetsOut"],
            "d_segs_out": batch["d_SegsOut"],
        })

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values(["cid", "snap_index"]).reset_index(drop=True)


def generate_pcap_archive(sf_dir: str) -> str:
    """One pcap capture per user_id: one IPv4 packet per event (ordered by
    event_id) with event-derived header fields the oracle SQL recomputes."""
    from etl_ray.pcaplite import ipv4_frame, write_pcap

    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        pkts = []
        for r in g.itertuples(index=False):
            eid = int(r.event_id)
            frame = ipv4_frame(
                f"10.0.{int(user) % 250}.1",
                f"192.0.2.{eid % 250 + 1}",
                ttl=64 - eid % 32,
                payload=bytes(eid % 64),
            )
            pkts.append((eid, int(user) % 1_000_000, frame))
        members.append((f"u{int(user)}.pcap", write_pcap(pkts)))
    return _tar_of(members)


def pcap_packets(sf_dir: str) -> pd.DataFrame:
    """Engine path: archive → vectorized pcap record walk + numpy-gather
    IPv4 decode → one row per packet (reference parser/pcap.go:40-109)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.pcaplite import PcapPacketDecoder
    from etl_ray.sources.archive import read_archives

    tar = generate_pcap_archive(sf_dir)
    ds = read_archives([tar]).map_batches(PcapPacketDecoder(),
                                          batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch["member"].combine_chunks(),
                               r"u(?P<u>\d+)\.pcap")
        uid = pc.cast(pc.struct_field(hit, "u"), pa.int64())
        return pa.table({
            "user_id": uid,
            "ts_sec": batch["ts_sec"],
            "ts_usec": batch["ts_usec"],
            "src_ip": batch["src_ip"],
            "dst_ip": batch["dst_ip"],
            "ttl": batch["ttl"],
            "proto": batch["proto"],
            "ip_payload_len": batch["ip_payload_len"],
        })

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values(["user_id", "ts_sec"]).reset_index(drop=True)


def generate_scamper_archive(sf_dir: str) -> str:
    """One 4-line tracelb jsonl per user_id (metadata, cycle-start, tracelb
    with one node per event, cycle-stop)."""
    import json

    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        host = f"host-{int(user) % 10}"
        nodes = [
            {"addr": f"192.0.2.{int(r.event_id) % 250 + 1}",
             "name": f"n{int(r.event_id)}",
             "q_ttl": int(r.event_id) % 4 + 1,
             "linkc": 1}
            for r in g.itertuples(index=False)
        ]
        lines = [
            {"type": "mda-metadata", "uuid": f"u{int(user)}"},
            {"type": "cycle-start", "start_time": 1489539600,
             "hostname": host, "id": int(user)},
            {"type": "tracelb", "src": "10.0.0.1", "dst": "192.0.2.77",
             "probe_size": 44, "probec": len(nodes), "nodec": len(nodes),
             "nodes": nodes},
            {"type": "cycle-stop", "stop_time": 1489539900},
        ]
        blob = "\n".join(json.dumps(x) for x in lines).encode()
        members.append((f"u{int(user)}.tracelb.jsonl", blob))
    return _tar_of(members)


def scamper_hops(sf_dir: str) -> pd.DataFrame:
    """Engine path: archive → Scamper1 restructure (nodes → hop rows with
    manufactured HopID, reference parser/scamper1.go:44-91). Payload
    expansion runs distributed in a map_batches stage."""
    import pyarrow as pa

    from etl_ray.parsers import parse_archives

    tar = generate_scamper_archive(sf_dir)
    expand = _payload_expander("scamper1", {
        "hop_id": ("hop_id", pa.string()),
        "addr": ("addr", pa.string()),
        "q_ttl": ("q_ttl", pa.int64()),
        "dst": ("dst", pa.string()),
        "nodec": ("nodec", pa.int64()),
        "hostname": ("hostname", pa.string()),
    })
    out = parse_archives([tar]).map_batches(
        expand, batch_format="pyarrow").to_pandas()
    return out.sort_values(["hop_id"]).reset_index(drop=True)


# ---------------------------------------------------- pollution retraction
def _traceroute_frame(batch):
    """Deterministic traceroute-shaped fields from events (dest space 0-16,
    complete on a 2/3 cycle) — reproducible in SQL by construction."""
    import pyarrow as pa

    eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "user_id": pa.array(uid),
        "event_id": pa.array(eid),
        "dest": pa.array(eid % 17),
        "last_hop": pa.array((eid * 7 + uid) % 17),
        "complete": pa.array(eid % 3 != 0),
    })


def pt_pollution(sf_dir: str) -> pd.DataFrame:
    """Pollution-buffer flags over the events stream: a later test whose
    dest matches a buffered incomplete test's last hop retracts it
    (reference parser/pt.go:627-669, window=2 buffer analog)."""
    import ray.data as rd

    from etl_ray.ops.pollution import detect_pollution

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id"])
    ds = ds.map_batches(_traceroute_frame, batch_format="pyarrow")
    out = detect_pollution(
        ds, key_col="user_id", order_col="event_id", dest_col="dest",
        last_hop_col="last_hop", complete_col="complete", window=2,
    ).to_pandas()
    # float64 (NaN for "not retracted") to match DuckDB's nullable-BIGINT
    # -> .df() representation; the driver's value hash is dtype-sensitive.
    out["retracted_by"] = out["retracted_by"].astype("float64")
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


def cdc_replay_retraction(sf_dir: str) -> pd.DataFrame:
    """End-to-end: the pollution stage GENERATES delete events that are
    replayed through the full CDC engine — retractions change the final
    lake state (each event is its own doc; polluted docs are deleted)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_
    import ray.data as rd

    from etl_ray.config import EngineConfig
    from etl_ray.ops.pollution import detect_pollution, retraction_events
    from etl_ray.pipelines import analogs as A
    from etl_ray.pipelines.replay import replay

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "value",
                                  "event_type"])
    flags = detect_pollution(
        ds.map_batches(
            lambda b: _traceroute_frame(b)
            .append_column("value", b["value"])
            .append_column("event_type", b["event_type"]),
            batch_format="pyarrow",
        ),
        key_col="user_id", order_col="event_id", dest_col="dest",
        last_hop_col="last_hop", complete_col="complete", window=2,
    ).to_pandas()

    inserts = pd.DataFrame({
        "op": "insert",
        "doc_id": flags["event_id"].astype(str),
        "sequence_number": flags["event_id"].astype("int64"),
        "value": flags["value"],
        "event_type": flags["event_type"],
    })
    seq_base = int(flags["event_id"].max()) + 1
    deletes = retraction_events(flags, id_col="event_id",
                                order_col="event_id", seq_base=seq_base)
    deletes["value"] = np.nan
    deletes["event_type"] = None
    changelog = pd.concat([inserts, deletes], ignore_index=True)
    changelog = changelog.sort_values("sequence_number")

    wal, lake = A.fresh_dirs("retraction")
    os.makedirs(wal, exist_ok=True)
    os.makedirs(lake, exist_ok=True)
    half = (len(changelog) + 1) // 2
    for i, piece in enumerate((changelog.iloc[:half], changelog.iloc[half:])):
        pq_.write_table(pa.Table.from_pandas(piece, preserve_index=False),
                        os.path.join(wal, f"seg-{i:05d}.parquet"))
    cfg = EngineConfig(num_partitions=8, payload=A.events_payload())
    replay(wal, lake, cfg)
    return A.lake_final_state(lake)


# ------------------------------------------------------ PT .paris traceroute
def generate_paris_archive(sf_dir: str) -> str:
    """One legacy ``.paris`` text traceroute per user_id: a single-flow hop
    chain with one hop line per event (event_id order), deterministic
    event-derived IPs/rtts the oracle SQL recomputes; sprinkled with MPLS
    lines and ``!``-error codes the parser must skip. Multi-flow forking is
    exercised by the handcrafted pytest fixtures (its hop set is not
    SQL-window-expressible)."""
    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        u = int(user)
        server = f"10.0.{u % 250}.1"
        lines = [
            "#comment line",
            f"traceroute [({server}:33461) -> (203.0.113.9:53849)], "
            "protocol icmp, algo exhaustive, duration 19 s",
        ]
        for i, r in enumerate(g.itertuples(index=False)):
            eid = int(r.event_id)
            ip = f"192.0.2.{eid % 250 + 1}"
            rtt = f"{(eid % 1000) / 1000:.3f}"
            line = (f"{i + 1}  P(6, 6)  host-{u % 10}.example  ({ip})  "
                    f"{rtt}/{rtt}/{rtt}/{rtt} ms")
            if eid % 7 == 0:
                line += " !T2"
            lines.append(line)
            if i % 5 == 4:
                lines.append("MPLS Label 337379 TTL 1")
        members.append((
            f"20170315T00:00:00Z-{server}-33461-203.0.113.9-42677"
            f"-u{u}.paris",
            "\n".join(lines).encode()))
    return _tar_of(members)


def pt_paris_hops(sf_dir: str) -> pd.DataFrame:
    """Engine path: archive → .paris text parse → node tree → REVERSED hop
    rows (reference parser/pt.go:321-933; reversal ProcessAllNodes
    pt.go:375-422). Hop assembly runs inside map_batches — nothing is
    expanded on the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.ptparis import ParisDecoder
    from etl_ray.sources.archive import read_archives

    tar = generate_paris_archive(sf_dir)
    ds = read_archives([tar]).map_batches(
        ParisDecoder(machine="mlab1-lga03"), batch_format="pyarrow")

    def project(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch["member"].combine_chunks(),
                               r"u(?P<cid>\d+)\.paris")
        cid = pc.cast(pc.struct_field(hit, "cid"), pa.int64())
        return pa.table({
            "cid": cid,
            "hop_index": batch["hop_index"],
            "hop_id": batch["hop_id"],
            "source_ip": batch["source_ip"],
            "source_hostname": batch["source_hostname"],
            "dst_ip": batch["dst_ip"],
            "rtt0": batch["rtt0"],
            "n_rtts": batch["n_rtts"],
            "last_hop": batch["last_hop"],
            "reached_dest": batch["reached_dest"],
        })

    out = ds.map_batches(project, batch_format="pyarrow").to_pandas()
    return out.sort_values(["cid", "hop_index"]).reset_index(drop=True)


# ------------------------------------------------- NDT test-group assembly
def generate_ndt_archive(sf_dir: str) -> str:
    """One NDT test group per user_id: {c2s_snaplog, s2c_snaplog, meta}
    members sharing a timestamp prefix, in REAL web100 binary format.
    Exercises the reference's collision rules (ndt.go:253-296): every 5th
    user also carries a TRUNCATED unzipped twin of the c2s snaplog (the
    ``.gz`` one must win for the row counts to match the oracle); every
    10th user has no meta member (``no_meta`` anomaly)."""
    import gzip

    from etl_ray.web100 import T_COUNTER32, T_COUNTER64, write_web100_snaplog

    df = _events_frame(sf_dir)
    members = []
    for user, g in df.groupby("user_id", sort=True):
        u = int(user)
        ts = f"20170315T00:00:00.{u:06d}Z"
        fields = [("SnapTimeStamp", T_COUNTER32),
                  ("DataBytesOut", T_COUNTER64),
                  ("PktsOut", T_COUNTER32)]

        def blob(mult: int, n: int = None) -> bytes:
            gg = g if n is None else g.iloc[:n]
            return write_web100_snaplog(fields, {
                "SnapTimeStamp": gg["event_id"].to_numpy(np.int64),
                "DataBytesOut": np.cumsum(
                    gg["cents"].to_numpy(np.int64) * mult),
                "PktsOut": gg["event_id"].to_numpy(np.int64) % 997,
            }, logtime=1489539600)

        c2s_name = f"{ts}_u{u}.c2s_snaplog"
        if u % 10 == 0:
            # zipped first, unzipped twin after: the twin is ignored
            members.append((c2s_name + ".gz", gzip.compress(blob(1))))
            members.append((c2s_name, blob(1, n=1)))
        elif u % 10 == 5:
            # unzipped first, zipped twin after: the zipped one replaces it
            members.append((c2s_name, blob(1, n=1)))
            members.append((c2s_name + ".gz", gzip.compress(blob(1))))
        else:
            members.append((c2s_name, blob(1)))
        members.append((f"{ts}_u{u}.s2c_snaplog", blob(3)))
        if u % 10 != 0:
            meta = (f"client_ip: 198.51.100.{u % 200}\n"
                    f"server_ip: 10.0.{u % 250}.1\n"
                    f"client_os: os-{u % 3}\n")
            members.append((f"{ts}_u{u}.meta", meta.encode()))
    return _tar_of(members)


def ndt_group_deltas(sf_dir: str) -> pd.DataFrame:
    """Engine path: per-archive NDT grouping (gz-preference collisions,
    meta enrichment, reference parser/ndt.go:210-309,570-588) → real-format
    web100 decode → per-direction delta stream. Meta fields land on every
    delta row; groups without a meta carry the no_meta anomaly."""
    import pyarrow as pa

    from etl_ray.ops.ndtgroup import group_ndt_archives
    from etl_ray.snaplog import decode_snaplog, delta_columns

    tar = generate_ndt_archive(sf_dir)

    def decode(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            try:
                t, _ = decode_snaplog(row["data"])
            except (ValueError, UnicodeDecodeError):
                continue
            t = delta_columns(t, ["DataOctetsOut"])
            n = len(t)
            cid = int(row["address"].lstrip("u"))
            outs.append(pa.table({
                "cid": pa.array(np.full(n, cid, np.int64)),
                "direction": pa.array(
                    np.full(n, row["direction"], np.int64)),
                "snap_index": t["snap_index"],
                "data_octets_out": t["DataOctetsOut"],
                "d_data_octets_out": t["d_DataOctetsOut"],
                "segs_out": t["SegsOut"],
                "client_ip": pa.array([row["client_ip"]] * n, pa.string()),
                "server_ip": pa.array([row["server_ip"]] * n, pa.string()),
                "client_os": pa.array([row["client_os"]] * n, pa.string()),
                "no_meta": pa.array([row["no_meta"]] * n, pa.bool_()),
            }))
        if not outs:
            return pa.schema([
                ("cid", pa.int64()), ("direction", pa.int64()),
                ("snap_index", pa.int64()), ("data_octets_out", pa.int64()),
                ("d_data_octets_out", pa.int64()),
                ("segs_out", pa.int64()), ("client_ip", pa.string()),
                ("server_ip", pa.string()), ("client_os", pa.string()),
                ("no_meta", pa.bool_()),
            ]).empty_table()
        return pa.concat_tables(outs)

    out = group_ndt_archives([tar]).map_batches(
        decode, batch_format="pyarrow").to_pandas()
    return out.sort_values(["cid", "direction", "snap_index"]).reset_index(
        drop=True)
