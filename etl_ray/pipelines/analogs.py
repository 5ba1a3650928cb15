"""Parser-analog pipelines over the driver test tables, and the
events-as-changelog adapter.

Each function mirrors a concrete reference-parser transform (SURVEY.md §2.3)
re-expressed over the synthetic ``events`` / ``documents`` tables so the
driver can verify it value-for-value against DuckDB SQL:

  * switch_group_agg     — SwitchParser's group-samples-by-timestamp rows
                           (/root/reference/parser/switch.go:121-182)
  * last_event_summary   — NDT7's summary-from-last-measurement reduce
                           (/root/reference/parser/ndt7_result.go:156-189)
  * thin_events          — TCPInfo's every-10th-snapshot + always-last
                           (/root/reference/parser/tcpinfo.go:96-110)
  * fanout_directions    — NDT5's one-test → S2C+C2S row fan-out
                           (/root/reference/parser/ndt5_result.go:113-207)
  * path_metadata        — DataPath regex field extraction
                           (/root/reference/etl/globals.go:93-163)
  * synthetic_uuids      — deterministic dedup keys
                           (/root/reference/parser/parser.go:150-176)

The events-as-changelog adapter turns the ``events`` table into a WAL the
full CDC engine replays end-to-end — the driver's SQL oracle then checks the
engine's final lake state with a window query (LWW semantics in ANSI SQL).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_ray.config import EngineConfig, PayloadSpec
from etl_ray.util import scratch_dir

# ----------------------------------------------------------- changelog adapter

CHANGELOG_SEG_SIZE = 4000


def events_to_changelog(sf_dir: str, out_dir: str, *,
                        seg_size: int = CHANGELOG_SEG_SIZE,
                        with_props_from: int | None = None) -> list:
    """Deterministically derive a WAL from the events table:
    op = delete when event_type='error' else insert; doc_id = str(user_id);
    sequence_number = event_id; payload = (value, event_type).

    ``with_props_from``: from that segment number onward, also carry the
    JSON prop ``k`` as an int column — the schema-evolution variant.
    Pure-pyarrow harness adapter (test-scale input), not an engine path.
    """
    t = pq.read_table(os.path.join(sf_dir, "events.parquet"))
    t = t.sort_by([("event_id", "ascending")])
    ev = t["event_type"]
    op = pc.if_else(pc.equal(ev, "error"), pa.scalar("insert"),
                    pa.scalar("insert"))
    op = pc.if_else(pc.equal(ev, "error"), pa.scalar("delete"), op)
    doc_id = pc.cast(t["user_id"], pa.string())
    seq = pc.cast(t["event_id"], pa.int64())
    out = pa.table(
        {
            "op": op,
            "doc_id": doc_id,
            "sequence_number": seq,
            "value": t["value"],
            "event_type": ev,
        }
    )
    if with_props_from is not None:
        ks = pd.Series(t["props"].to_pylist()).str.extract(
            r'"k":\s*(\d+)')[0].astype("Int64")
        out = out.append_column("k", pa.array(ks, pa.int64()))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    n = len(out)
    seg = 0
    for lo in range(0, n, seg_size):
        piece = out.slice(lo, seg_size)
        if with_props_from is not None and seg < with_props_from:
            piece = piece.drop_columns(["k"])
        p = os.path.join(out_dir, f"seg-{seg:05d}.parquet")
        pq.write_table(piece, p)
        paths.append(p)
        seg += 1
    return paths


def events_payload(quarantine_over: float | None = None) -> PayloadSpec:
    """Payload spec for the events-derived changelog. With
    ``quarantine_over`` set, upserts whose value exceeds it are routed to
    quarantine (the row-validity filter analog)."""
    if quarantine_over is None:
        return PayloadSpec(name="events", payload_schema=pa.schema(
            [pa.field("value", pa.float64()), pa.field("event_type", pa.string())]
        ))

    def validator(table: pa.Table, upsert_mask: np.ndarray) -> list:
        v = table["value"].to_numpy(zero_copy_only=False)
        bad = upsert_mask & (np.nan_to_num(v, nan=-1.0) > quarantine_over)
        return [(bad, "value out of range")]

    return PayloadSpec(
        name="events-quarantine",
        payload_schema=pa.schema(
            [pa.field("value", pa.float64()), pa.field("event_type", pa.string())]
        ),
        validator=validator,
    )


def fresh_dirs(tag: str):
    root = scratch_dir(f"{tag}_")
    return os.path.join(root, "wal"), os.path.join(root, "lake")


def docs_to_changelog(sf_dir: str, out_dir: str) -> list:
    """Deterministically derive a 3-segment WAL from the documents table,
    with real update/delete churn so incremental consumers have something
    to maintain: segment 0 inserts every doc (seq=doc_id); segment 1
    updates every doc_id % 5 == 0 to the NEXT doc's text (seq=N+doc_id);
    segment 2 deletes every doc_id % 7 == 0 (seq=2N+doc_id). The final
    state is closed-form, so a SQL oracle reconstructs it from the
    documents view alone. Pure-pyarrow harness adapter (test-scale input),
    not an engine path."""
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    t = t.sort_by([("doc_id", "ascending")])
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pandas()
    n = len(ids)

    # the closed-form oracle indexes by (doc_id + 1) % n — valid only for
    # the testdata's contiguous 0..n-1 ids, so pin that assumption here
    assert (ids == np.arange(n)).all(), "documents doc_id not contiguous"

    def seg_table(op, which, seq_base, txt):
        return pa.table({
            "op": pa.array(np.repeat(op, int(which.sum()))),
            "doc_id": pa.array(ids[which].astype(str), pa.string()),
            "sequence_number": pa.array(ids[which] + seq_base, pa.int64()),
            "text": txt if isinstance(txt, pa.Array)
            else pa.array(txt, pa.string()),
        })

    all_mask = np.ones(n, dtype=bool)
    upd = (ids % 5) == 0
    dele = (ids % 7) == 0
    nxt = texts.iloc[(ids[upd] + 1) % n].to_numpy()
    segs = [
        seg_table("insert", all_mask, 0, texts.to_numpy()),
        seg_table("update", upd, n, nxt),
        seg_table("delete", dele, 2 * n,
                  pa.nulls(int(dele.sum()), pa.string())),
    ]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, seg in enumerate(segs):
        p = os.path.join(out_dir, f"seg-{i:05d}.parquet")
        pq.write_table(seg, p)
        paths.append(p)
    return paths


def docs_payload() -> PayloadSpec:
    """Payload spec for the documents-derived changelog (text only)."""
    return PayloadSpec(name="docs", payload_schema=pa.schema(
        [pa.field("text", pa.string())]))


def lake_final_state(lake_dir: str) -> pd.DataFrame:
    """(doc_id, last_seq, value, event_type) sorted — the comparison shape
    shared with the SQL oracle."""
    from etl_ray.lake import read_lake

    df = read_lake(lake_dir, include_seq=True).to_pandas()
    df = df.rename(columns={"sequence_number": "last_seq"})
    cols = ["doc_id", "last_seq", "value", "event_type"]
    extra = [c for c in df.columns if c not in cols]
    return (
        df[cols + extra]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


# ------------------------------------------------------------- parser analogs

def switch_group_agg(sf_dir: str):
    """Group events into one row per (user_id, hour) with sample count and
    value sum, sorted by time — partial aggregation inside map_batches, then
    a small groupby over partials (pre-agg before shuffle)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # sum in integer cents: float summation is order-dependent across
        # block splits, so an exact-value parity check needs exact arithmetic
        df = df.assign(
            hour=df["ts"].dt.floor("h"),
            cents=np.round(df["value"].to_numpy() * 100).astype(np.int64),
        )
        g = df.groupby(["user_id", "hour"], as_index=False).agg(
            n_samples=("cents", "size"), sum_cents=("cents", "sum"))
        return g

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["user_id", "hour"])
        .aggregate(Sum("n_samples", alias_name="n_samples"),
                   Sum("sum_cents", alias_name="sum_cents"))
    )
    df = out.to_pandas().sort_values(["user_id", "hour"]).reset_index(drop=True)
    df["sum_value"] = df.pop("sum_cents") / 100.0
    return df


def last_event_summary(sf_dir: str):
    """Per-user summary derived from the LAST event (plus aggregates) — the
    summary-from-last-array-element reduce."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_id")
        cents = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "last_value": [g["value"].iloc[-1]],
                # exact integer-cents sum → one double division: identical
                # on any summation order and in SQL
                "mean_value": [float(cents.sum()) / (100.0 * len(g))],
                "min_value": [g["value"].min()],
                "max_value": [g["value"].max()],
                "n_events": [len(g)],
            }
        )

    out = ds.groupby("user_id").map_groups(per_user, batch_format="pandas")
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def thin_events(sf_dir: str, *, stride: int = 10):
    """Per user: keep every ``stride``-th event (1st, 11th, …) plus always
    the last — snapshot thinning."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_id", "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("event_id").reset_index(drop=True)
        keep = (g.index % stride == 0) | (g.index == len(g) - 1)
        out = g[keep].copy()
        out["rn"] = np.flatnonzero(keep) + 1
        return out

    out = ds.groupby("user_id").map_groups(per_user, batch_format="pandas")
    return (
        out.to_pandas()
        .sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )


def fanout_directions(sf_dir: str):
    """1 purchase event → 2 rows (download + upload direction), nulling the
    other side's value — the NDT5 S2C/C2S fan-out, vectorized 1→N."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id", "event_type", "value"])

    def fan(batch: pa.Table) -> pa.Table:
        purchases = batch.filter(pc.equal(batch["event_type"], "purchase"))
        n = len(purchases)
        if n == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "direction": pa.array([], pa.string()),
                             "dir_value": pa.array([], pa.float64())})
        s2c = pa.table({
            "event_id": purchases["event_id"],
            "user_id": purchases["user_id"],
            "direction": pa.array(["s2c"] * n),
            "dir_value": purchases["value"],
        })
        c2s = pa.table({
            "event_id": purchases["event_id"],
            "user_id": purchases["user_id"],
            "direction": pa.array(["c2s"] * n),
            "dir_value": pc.multiply(purchases["value"], pa.scalar(0.5)),
        })
        return pa.concat_tables([s2c, c2s])

    out = ds.map_batches(fan, batch_format="pyarrow").to_pandas()
    return out.sort_values(["event_id", "direction"]).reset_index(drop=True)


def path_metadata(sf_dir: str):
    """Regex field extraction from the documents table's source/lang columns
    (the DataPath capability): numeric source id + derived test id."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "source", "lang", "n_chars"])

    def f(batch: pa.Table) -> pa.Table:
        src = batch["source"].combine_chunks() if isinstance(
            batch["source"], pa.ChunkedArray) else batch["source"]
        src_num = pc.cast(
            pc.extract_regex(src, r"src(?P<num>\d+)").field("num"),
            pa.int64(),
        )
        return pa.table({
            "doc_id": batch["doc_id"],
            "src_num": src_num,
            "lang": batch["lang"],
            "n_chars": batch["n_chars"],
        })

    return (
        ds.map_batches(f, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def synthetic_uuids(sf_dir: str):
    """Deterministic per-event uuid = md5('user_id|event_id') — the synthetic
    dedup key (reproducible in SQL as md5(concat(...)))."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "user_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        key = df["user_id"].astype(str) + "|" + df["event_id"].astype(str)
        df = df.copy()
        df["uuid"] = [hashlib.md5(s.encode()).hexdigest() for s in key]
        return df

    return (
        ds.map_batches(f, batch_format="pandas")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
