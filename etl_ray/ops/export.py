"""Training-data export: hash-sharded, resumable Parquet output.

The last stage of a curation pipeline: write the corpus as N deterministic
shards a trainer can stream, such that a failed/killed export RESUMES by
skipping finished shards instead of rewriting the world — the same
deterministic-path + marker discipline the lake's commit protocol uses
(state/manifest.py), applied to the outbound side:

  * shard assignment is pure per-row arithmetic — ``md5(key) % n_shards``
    — so any re-run routes every doc to the same shard regardless of
    partitioning or order (no global sort, no coordination);
  * each shard writes ``shard-<i>.parquet`` via tmp+rename, then drops a
    ``shard-<i>.SUCCESS`` marker carrying the row/token counts; a shard
    with a marker is SKIPPED on re-run (its rows never even shuffle —
    the skip happens at the filter stage, before the exchange);
  * rows inside a shard are sorted by key, so a completed shard is
    byte-stable across runs.

One groupby on the shard id moves each doc once; shard tasks are
independent, so a 100 TB export is N parallel writers with per-shard
restart granularity.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.ops.dedup import md5le64
from etl_ray.util import atomic_path, write_atomic


def _marker(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, f"shard-{shard:05d}.SUCCESS")


def export_shards(ds, out_dir: str, *, key_col: str = "doc_id",
                  n_shards: int = 16, tokens_col: Optional[str] = None,
                  seed: str = ""):
    """Write ``ds`` as ``n_shards`` resumable Parquet shards; returns the
    shard manifest as a pandas DataFrame (shard, n_docs, n_tok, skipped)
    — n_tok totalled from ``tokens_col`` list lengths when given."""
    os.makedirs(out_dir, exist_ok=True)
    config = {"n_shards": n_shards, "seed": seed, "key_col": key_col}
    done = set()
    for s in range(n_shards):
        mp = _marker(out_dir, s)
        if not os.path.exists(mp):
            continue
        with open(mp) as f:
            meta = json.load(f)
        # resuming under a DIFFERENT sharding config would silently drop
        # every doc routed to a "done" shard of the old partitioning —
        # refuse instead of corrupting the corpus
        old = {k: meta.get(k) for k in config}
        if old != config:
            raise ValueError(
                f"shard {s} was written with config {old}; this run uses "
                f"{config} — export to a fresh out_dir")
        # a marker without its data file is a committed-but-lost shard:
        # rewrite it rather than trusting the lying manifest
        if os.path.exists(
                os.path.join(out_dir, f"shard-{s:05d}.parquet")):
            done.add(s)
    done = frozenset(done)

    def assign(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False).astype(str)
        if seed:
            keys = np.char.add(keys, seed)
        shard = (md5le64(keys.astype(object))
                 % np.uint64(n_shards)).astype(np.int64)
        t = t.append_column("__shard", pa.array(shard))
        if done:  # finished shards drop out BEFORE the shuffle
            keep = ~np.isin(shard, list(done))
            t = t.filter(pa.array(keep))
        return t

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        shard = int(g["__shard"].iloc[0])
        g = g.drop(columns="__shard").sort_values(key_col).reset_index(
            drop=True)
        n_tok = 0
        if tokens_col is not None:
            n_tok = int(sum(len(v) for v in g[tokens_col]))
        path = os.path.join(out_dir, f"shard-{shard:05d}.parquet")
        with atomic_path(path) as tmp:
            pq.write_table(pa.Table.from_pandas(g, preserve_index=False),
                           tmp)
        meta = {"shard": shard, "n_docs": len(g), "n_tok": n_tok,
                **config}
        write_atomic(_marker(out_dir, shard), json.dumps(meta))
        return pd.DataFrame([{**meta, "skipped": False}])

    written = (ds.map_batches(assign, batch_format="pyarrow")
               .groupby("__shard")
               .map_groups(write_shard, batch_format="pandas")
               .to_pandas())
    if written.empty:  # fully-resumed run: everything was carried
        written = pd.DataFrame(
            columns=["shard", "n_docs", "n_tok", "skipped"])
    skipped = []
    for s in sorted(done):
        with open(_marker(out_dir, s)) as f:
            meta = json.load(f)
        skipped.append({**meta, "skipped": True})
    out = pd.concat([written, pd.DataFrame(skipped)], ignore_index=True) \
        if skipped else written
    out = out[["shard", "n_docs", "n_tok", "skipped"]].astype(
        {"shard": "int64", "n_docs": "int64", "n_tok": "int64",
         "skipped": "bool"})  # concat with an empty frame degrades to
    # object dtype, and `~object-bool` silently bit-flips ints
    return out.sort_values("shard").reset_index(drop=True)


def read_shards(out_dir: str):
    """Completed shards (marker present) as one Dataset. A marker whose
    data file is missing is a committed-but-lost shard — that is a RAISE,
    never a silently truncated corpus."""
    import ray.data as rd

    paths = []
    for fn in sorted(os.listdir(out_dir)):
        if fn.endswith(".SUCCESS"):
            p = os.path.join(out_dir, fn.replace(".SUCCESS", ".parquet"))
            if not os.path.exists(p):
                raise FileNotFoundError(
                    f"shard marker {fn} has no data file — the shard was "
                    f"committed but its parquet is gone; re-run "
                    f"export_shards to rebuild it")
            paths.append(p)
    if not paths:
        raise FileNotFoundError(f"no completed shards under {out_dir}")
    return rd.read_parquet(paths)
