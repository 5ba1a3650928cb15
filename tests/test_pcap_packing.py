"""libpcap binary decode and sequence packing."""

import struct

import numpy as np
import pandas as pd
import pytest

from etl_ray.ops.packing import SEQ_PER_BUCKET, _pack_group
from etl_ray.pcaplite import (
    PcapParser,
    decode_pcap,
    ipv4_frame,
    summarize_pcap,
    write_pcap,
)


def capture(n=4, nanos=False):
    pkts = [
        (100 + i, 5000 + i,
         ipv4_frame(f"10.0.0.{i + 1}", "192.0.2.9", ttl=60 + i,
                    payload=bytes(i * 3)))
        for i in range(n)
    ]
    return write_pcap(pkts, nanos=nanos), pkts


def test_pcap_roundtrip_ipv4_fields():
    data, pkts = capture(5)
    cols = decode_pcap(data)
    assert cols["ts_sec"].tolist() == [100, 101, 102, 103, 104]
    assert cols["ts_usec"].tolist() == [5000, 5001, 5002, 5003, 5004]
    assert cols["src_ip"].tolist() == [f"10.0.0.{i + 1}" for i in range(5)]
    assert set(cols["dst_ip"]) == {"192.0.2.9"}
    assert cols["ttl"].tolist() == [60, 61, 62, 63, 64]
    assert cols["proto"].tolist() == [6] * 5
    assert cols["ip_payload_len"].tolist() == [0, 3, 6, 9, 12]


def test_pcap_nanosecond_magic_and_big_endian():
    data, _ = capture(2, nanos=True)
    cols = decode_pcap(data)
    assert cols["ts_usec"].tolist() == [5, 5]  # ns → µs
    # byte-swap the whole header to fake big-endian writer
    magic, rest = data[:4], data[4:]
    be = struct.pack(">I", struct.unpack("<I", magic)[0]) + rest
    with pytest.raises(ValueError):
        # header says big-endian but records are little → length overrun
        decode_pcap(be)


def test_pcap_corruption_rejected():
    data, _ = capture(3)
    with pytest.raises(ValueError):
        decode_pcap(data[:-3])  # truncated record
    with pytest.raises(ValueError):
        decode_pcap(b"XXXX" + data[4:])  # bad magic
    with pytest.raises(ValueError):
        decode_pcap(data[:20])  # truncated global header


def test_pcap_summary_row():
    data, _ = capture(4)
    row = summarize_pcap(data)
    assert row["n_packets"] == 4
    assert row["duration_us"] == 3_000_003  # (103-100)s + (5003-5000)µs
    assert row["src_ip"] == "10.0.0.1"
    assert PcapParser().parse({}, "x.pcap", data) == [row]


def test_pcap_non_ip_packet_defaults():
    arp = b"\xff" * 12 + struct.pack(">H", 0x0806) + b"\x00" * 20
    data = write_pcap([(1, 0, arp)])
    cols = decode_pcap(data)
    assert cols["src_ip"][0] is None
    assert cols["ttl"][0] == -1


# ------------------------------------------------------------------ packing
def group(rows):
    return pd.DataFrame(rows, columns=["doc_id", "bucket", "tokens"])


def test_pack_group_chunks_and_order():
    g = group([
        (2, 0, [4, 5, 6]),
        (1, 0, [1, 2, 3]),  # doc order by id: doc 1 first
        (3, 0, [7, 8]),
    ])
    out = _pack_group(g, seq_len=4, id_col="doc_id", tokens_col="tokens",
                      eos_token=None)
    assert out["seq_id"].tolist() == [0, 1]
    assert out["tokens_csv"].tolist() == ["1,2,3,4", "5,6,7,8"]
    assert out["n_tok"].tolist() == [4, 4]


def test_pack_group_eos_and_short_tail():
    g = group([(1, 3, [1, 2]), (2, 3, [3])])
    out = _pack_group(g, seq_len=4, id_col="doc_id", tokens_col="tokens",
                      eos_token=0)
    # stream = 1,2,0,3,0 → chunks (1,2,0,3) + (0)
    assert out["seq_id"].tolist() == [3 * SEQ_PER_BUCKET,
                                      3 * SEQ_PER_BUCKET + 1]
    assert out["tokens_csv"].tolist() == ["1,2,0,3", "0"]
    assert out["n_tok"].tolist() == [4, 1]


@pytest.mark.usefixtures("ray_session")
def test_pack_documents_covers_all_tokens(tmp_path):
    import ray.data as rd

    from etl_ray.functions.text import BPE_RE
    from etl_ray.ops.packing import pack_documents

    df = pd.DataFrame({
        "doc_id": np.arange(20, dtype=np.int64),
        "text": [f"hello world {i} tokens-{i}!" for i in range(20)],
    })
    out = pack_documents(rd.from_pandas(df), seq_len=8,
                         bucket_size=8).to_pandas()
    total = sum(len(BPE_RE.findall(t)) for t in df["text"])
    assert out["n_tok"].sum() == total
    assert (out["n_tok"] <= 8).all()
    # every bucket's last chunk may be short; all others are full
    out["bucket"] = out["seq_id"] // SEQ_PER_BUCKET
    for _, g in out.groupby("bucket"):
        assert (g.sort_values("seq_id")["n_tok"].iloc[:-1] == 8).all()


@pytest.mark.usefixtures("ray_session")
def test_length_bucket_batches_hand_case():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.packing import length_bucket_batches

    lens = [5, 40, 33, 200, 64, 64, 65, 1000, 31, 32]
    t = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "tokens": pa.array([[0] * n for n in lens], pa.list_(pa.int32())),
    })
    out = (length_bucket_batches(rd.from_arrow(t), batch_size=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # boundary value 32 stays in bucket 0 (first boundary >= n_tok)
    assert out["bucket"].tolist() == [0, 1, 1, 3, 1, 1, 2, 4, 0, 0]
    # bucket 0 in id order: ids 0,8 (batch 0) then 9 (batch 1)
    b0 = out[out.bucket == 0]
    assert b0["batch_idx"].tolist() == [0, 0, 1]
    # pad_to is the batch max; waste = pad_to - n_tok
    assert out.loc[0, "pad_to"] == 31 and out.loc[0, "waste"] == 26
    assert (out["waste"] == out["pad_to"] - out["n_tok"]).all()


@pytest.mark.usefixtures("ray_session")
def test_length_bucket_batches_null_tokens_dropped():
    """A NULL token list has no length: it must not reach the int64 cast
    (NaN → INT64_MIN garbage in n_tok/bucket/waste). Empty lists stay."""
    import pyarrow as pa
    import ray.data as rd

    from etl_ray.ops.packing import length_bucket_batches

    t = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "tokens": pa.array([[0] * 3, None, [], [0] * 40, None],
                           pa.list_(pa.int32())),
    })
    out = (length_bucket_batches(rd.from_arrow(t), batch_size=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [0, 2, 3]
    assert out["n_tok"].tolist() == [3, 0, 40]
    assert out["bucket"].tolist() == [0, 0, 1]
    assert out["pad_to"].tolist() == [3, 3, 40]
    assert out["waste"].tolist() == [0, 3, 0]
