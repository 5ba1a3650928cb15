"""Incremental view maintenance (IVM): a grouped aggregate over the lake
that refreshes from CHANGE DELTAS instead of rescanning the table.

The consumer-side twin of the reference's per-load row stats (its
RowStats/metrics accumulate per task; here the maintained object is a
queryable aggregate of the WHOLE lake). A full groupby over 100 TB per
refresh is exactly the recompute CDC exists to avoid; with `lake_diff`'s
per-partition change stream the refresh cost is O(changed docs), not
O(table).

Exactness: sums are maintained in scaled int64 (``scale`` — e.g. cents),
so incremental +new/-old folding is associative and bit-equal to a direct
groupby (float accumulation order would not be). Group membership changes
on update are handled by emitting a retraction against the OLD group and
an assertion into the new one.

State: one small parquet per view under ``<lake>/_views/<name>/`` plus a
meta json recording the lake version it is current AS OF. Writes are
tmp+rename atomic, state file first, meta flip last — a crash between the
two leaves the previous consistent state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.state.manifest import Manifest
from etl_ray.util import atomic_path, write_atomic

_NULL = "\x00__null__"


@dataclass(frozen=True)
class ViewSpec:
    """Grouped counts + exact scaled-integer sums.

    sum_cols: (out_name, payload_col, scale) — contribution is
    round(payload * scale) as int64.
    """

    name: str
    group_col: str
    sum_cols: Tuple[Tuple[str, str, int], ...] = field(default_factory=tuple)

    @property
    def out_cols(self):
        return [self.group_col, "n_docs"] + [s[0] for s in self.sum_cols]


def _view_dir(lake_dir: str, spec: ViewSpec) -> str:
    return os.path.join(lake_dir, "_views", spec.name)


def _scaled(col: pd.Series, scale: int) -> np.ndarray:
    vals = col.to_numpy(dtype="float64", na_value=0.0, copy=True)
    return np.round(vals * scale).astype(np.int64)


def _fold(spec: ViewSpec, sign_frames) -> pd.DataFrame:
    """Aggregate a list of (sign, frame) contributions into per-group
    (n_docs, sums...)."""
    parts = []
    for sign, f, groups_col in sign_frames:
        if not len(f):
            continue
        p = pd.DataFrame({spec.group_col: groups_col.fillna(_NULL)})
        p["n_docs"] = np.int64(sign)
        for out, col, scale in spec.sum_cols:
            p[out] = sign * _scaled(f[col], scale)
        parts.append(p)
    if not parts:
        # typed empty frame — Ray unifies map_batches blocks by schema
        out = pd.DataFrame({spec.group_col: pd.Series([], dtype="object")})
        for c in spec.out_cols[1:]:
            out[c] = pd.Series([], dtype="int64")
        return out
    allp = pd.concat(parts, ignore_index=True)
    return allp.groupby(spec.group_col, as_index=False).sum()


def contrib_frame(spec: ViewSpec, df: pd.DataFrame) -> pd.DataFrame:
    """Exact +/- contributions for a change-event frame: insert asserts the
    new state, delete retracts the old state, update does both (retraction
    against the OLD group/values via the ``old_*`` columns, assertion at the
    new ones). Pre-aggregated per batch so the final groupby moves one row
    per (group, batch)."""
    ins = df[df["change_op"] != "delete"]  # insert/update assert new state
    rem = df[df["change_op"] != "insert"]  # update/delete retract old state
    old_group = rem[f"old_{spec.group_col}"]
    sign_frames = [(+1, ins, ins[spec.group_col])]
    if len(rem):
        old = pd.DataFrame({spec.group_col: old_group})
        for out, col, scale in spec.sum_cols:
            old[col] = rem[f"old_{col}"].to_numpy()
        sign_frames.append((-1, old, old[spec.group_col]))
    return _fold(spec, sign_frames)


def _write_state(lake_dir: str, spec: ViewSpec, state: pd.DataFrame,
                 as_of: int) -> None:
    d = _view_dir(lake_dir, spec)
    os.makedirs(d, exist_ok=True)
    state = state[spec.out_cols].sort_values(spec.group_col)
    path = os.path.join(d, f"state-v{as_of}.parquet")
    with atomic_path(path) as tmp:
        pq.write_table(pa.Table.from_pandas(state, preserve_index=False),
                       tmp)
    meta = {"as_of_version": as_of, "state_file": os.path.basename(path),
            "group_col": spec.group_col,
            "sum_cols": [list(s) for s in spec.sum_cols]}
    write_atomic(os.path.join(d, "meta.json"), json.dumps(meta))


def _load_state(lake_dir: str, spec: ViewSpec):
    d = _view_dir(lake_dir, spec)
    mp = os.path.join(d, "meta.json")
    if not os.path.exists(mp):
        return None, 0
    with open(mp) as f:
        meta = json.load(f)
    state = pq.read_table(os.path.join(d, meta["state_file"])).to_pandas()
    return state, int(meta["as_of_version"])


def read_view(lake_dir: str, spec: ViewSpec) -> pd.DataFrame:
    """Current contents of the view (group values with null restored)."""
    state, _ = _load_state(lake_dir, spec)
    if state is None:
        raise FileNotFoundError(f"view {spec.name} not built")
    out = state.copy()
    out[spec.group_col] = out[spec.group_col].replace({_NULL: None})
    return out.reset_index(drop=True)


def build_view(lake_dir: str, spec: ViewSpec,
               version: Optional[int] = None) -> pd.DataFrame:
    """Full (re)build at ``version`` (default: current): one distributed
    partial-agg pass over the lake — the once-per-view cost; afterwards
    ``refresh_view`` is O(changes)."""
    from etl_ray.lake import read_lake

    manifest = Manifest.load(lake_dir, version=version)
    cols = [spec.group_col] + [c for _, c, _ in spec.sum_cols]
    ds = read_lake(lake_dir, columns=cols, version=version)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return _fold(spec, [(+1, df, df[spec.group_col])])

    folded = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if len(folded):
        state = folded.groupby(spec.group_col, as_index=False).sum()
    else:
        state = pd.DataFrame({c: [] for c in spec.out_cols})
    _write_state(lake_dir, spec, state, manifest.version)
    return read_view(lake_dir, spec)


def refresh_view(lake_dir: str, spec: ViewSpec) -> pd.DataFrame:
    """Incrementally advance the view to the lake's current version by
    folding the change stream since the view's as-of version. Distributed
    end-to-end: per-partition diff -> per-batch contributions -> one small
    groupby; only per-group rows reach the driver."""
    from etl_ray.ops.cdc_diff import lake_diff

    state, as_of = _load_state(lake_dir, spec)
    if state is None:
        return build_view(lake_dir, spec)
    cur = Manifest.load(lake_dir).version
    if cur == as_of:
        return read_view(lake_dir, spec)
    include = [spec.group_col] + [c for _, c, _ in spec.sum_cols]
    diff = lake_diff(lake_dir, from_version=as_of, to_version=cur,
                     include_old=include)

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        return contrib_frame(spec, df)

    folded = diff.map_batches(contrib, batch_format="pandas").to_pandas()
    if len(folded):
        delta = folded.groupby(spec.group_col, as_index=False).sum()
        merged = (
            pd.concat([state, delta], ignore_index=True)
            .groupby(spec.group_col, as_index=False).sum()
        )
        merged = merged[merged["n_docs"] != 0]
    else:
        merged = state
    _write_state(lake_dir, spec, merged, cur)
    return read_view(lake_dir, spec)
