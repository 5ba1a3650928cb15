"""Broadcast lookup joins: the small-side dimension-join pattern.

The reference's analog is its per-process annotation/metadata lookups
(site/geo dictionaries loaded once per worker and probed per row,
/root/reference/web100/web100.go:92-105, parser/annotation2.go). At engine
scale this is THE way to join a small side: `ray.put` the lookup table once,
fetch it once per worker in the stage constructor, probe it vectorized per
batch — zero shuffle, vs. an all-to-all join that moves the big side.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from etl_ray.util import cluster_cpus


class BroadcastLookup:
    """Stateful map_batches stage: the lookup frame is resolved once per
    worker (constructor), then every batch is a vectorized pandas merge
    against the in-memory side. ``lookup`` may be an object-store ref (big
    side: fetched once per ACTOR) or a plain frame (small side: shipped
    inside the instance to a task pool — no per-execution actor spawn)."""

    def __init__(self, lookup, left_on: str, right_on: str,
                 columns: Optional[List[str]]):
        import ray

        lk = ray.get(lookup) if isinstance(lookup, ray.ObjectRef) else lookup
        if columns:
            lk = lk[[right_on] + [c for c in columns if c != right_on]]
        self.lookup = lk.set_index(right_on)
        self.left_on = left_on

    def __call__(self, batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        joined = df.join(self.lookup, on=self.left_on)
        return pa.Table.from_pandas(joined, preserve_index=False)


# ship-inside-the-task threshold: below this the serialized lookup rides
# along with each task (cheap); above it, ray.put once + actor pool
SMALL_LOOKUP_BYTES = 8 << 20


def broadcast_join(ds, lookup: pd.DataFrame, *, left_on: str, right_on: str,
                   columns: Optional[List[str]] = None,
                   concurrency: Optional[int] = None):
    """Dataset ⟕ small pandas frame (left join), broadcast once. The small
    side must fit worker memory — the same bound as the reference's
    per-process dictionaries; shuffle joins (`Dataset.join`) remain the
    path for two big sides."""
    import ray

    if lookup.memory_usage(deep=True).sum() <= SMALL_LOOKUP_BYTES:
        # constructed instance → task pool (actor spawn ~1 s/actor per
        # execution is pure overhead for a tiny dim table)
        return ds.map_batches(
            BroadcastLookup(lookup, left_on, right_on, columns),
            batch_format="pyarrow",
        )
    ref = ray.put(lookup)
    if concurrency is None:
        concurrency = max(2, cluster_cpus() - 2)
    return ds.map_batches(
        BroadcastLookup,
        fn_constructor_args=(ref, left_on, right_on, columns),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )


def _pa_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset whose base schema may be a PandasBlockSchema
    (parallel .names / .types numpy dtypes) instead of a pa.Schema."""
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    return pa.schema([
        (n, pa.from_numpy_dtype(np.dtype(t)))
        for n, t in zip(base.names, base.types)
    ])


# ------------------------------------------------------------- as-of joins
class BroadcastAsof:
    """Stateful map_batches stage for the small-right-side AS-OF join:
    per key, each left row gets the LATEST right row whose time is <= the
    left time (direction='backward'). The right side is indexed ONCE per
    worker (sorted arrays per key); each batch is one vectorized
    np.searchsorted per key present — zero shuffle."""

    def __init__(self, right_ref, by: str, on: str, right_on: str,
                 value_cols: List[str]):
        import ray

        right = ray.get(right_ref) if not isinstance(
            right_ref, pd.DataFrame) else right_ref
        self.by, self.on = by, on
        self.value_cols = value_cols
        self.index: Dict = {}
        for key, g in right.groupby(by, sort=False):
            g = g.sort_values(right_on, kind="stable")
            self.index[key] = (
                g[right_on].to_numpy(),
                {c: g[c].to_numpy() for c in value_cols},
            )

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        out = {c: np.full(n, None, dtype=object) for c in self.value_cols}
        keys = df[self.by].to_numpy()
        times = df[self.on].to_numpy()
        for key, idx in pd.Series(range(n)).groupby(keys):
            entry = self.index.get(key)
            if entry is None:
                continue
            t_right, vals = entry
            pos = np.searchsorted(t_right, times[idx.to_numpy()],
                                  side="right") - 1
            ok = pos >= 0
            rows = idx.to_numpy()[ok]
            for c in self.value_cols:
                out[c][rows] = vals[c][pos[ok]]
        res = df.copy()
        for c in self.value_cols:
            res[c] = out[c]
        return res


def asof_join_broadcast(left, right: pd.DataFrame, *, by: str, on: str,
                        right_on: str, value_cols: List[str],
                        concurrency: int = 4):
    """AS-OF join with a broadcast right side (`ray.put` once, indexed once
    per worker). Right side must fit worker memory — the dim-state shape."""
    import ray

    ref = ray.put(right)
    return left.map_batches(
        BroadcastAsof,
        fn_constructor_args=(ref, by, on, right_on, value_cols),
        batch_format="pandas",
        concurrency=concurrency,
        num_cpus=1,
    )


def asof_join(left, right, *, by: str, on: str, right_on: str,
              value_cols: List[str], num_buckets: Optional[int] = None):
    """Scalable AS-OF join: both sides hash-bucket on the key (ONE shuffle,
    bounded group count — never a group per key, which is the many-tiny-
    groups map_groups shape measured pathological), then each bucket runs
    one vectorized ``pd.merge_asof``. Partitioning assumption: a bucket's
    rows (both sides) fit one worker — size num_buckets accordingly."""
    if num_buckets is None:
        num_buckets = max(4, cluster_cpus())

    lschema = _pa_schema(left)
    left_cols = list(lschema.names)
    all_cols = left_cols + [c for c in [right_on] + value_cols
                            if c not in left_cols]
    # NaN-padding the union upcasts ints to float; remember the left-side
    # dtypes so per_bucket can restore them after the side split
    left_dtypes = {f.name: f.type.to_pandas_dtype() for f in lschema
                   if pa.types.is_integer(f.type)
                   or pa.types.is_floating(f.type)}

    def tag(side: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            for c in all_cols:
                if c not in df.columns:
                    df[c] = np.nan
            df = df[all_cols]
            df["__side"] = np.int64(side)
            df["__bucket"] = pd.util.hash_array(
                df[by].to_numpy()).astype(np.int64) % num_buckets
            return df

        return f

    lt = left.map_batches(tag(0), batch_format="pandas")
    rt = right.map_batches(tag(1), batch_format="pandas")
    both = lt.union(rt)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["__side"] == 0][left_cols].copy()
        for c, dt in left_dtypes.items():
            lf[c] = lf[c].astype(dt)
        lf = lf.sort_values(on, kind="stable")
        rf = g[g["__side"] == 1][[by, right_on] + value_cols]
        rf = rf.dropna(subset=[right_on]).sort_values(
            right_on, kind="stable").copy()
        rf[right_on] = rf[right_on].astype(lf[on].dtype)
        rf[by] = rf[by].astype(lf[by].dtype)
        merged = pd.merge_asof(lf, rf, left_on=on, right_on=right_on,
                               by=by, direction="backward")
        return merged.drop(columns=[right_on])

    return both.groupby("__bucket").map_groups(
        per_bucket, batch_format="pandas")


# ----------------------------------------------------------- range joins
def _overlap_emit(t_sorted: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Vectorized interval overlap against a SORTED point array: returns
    (point_pos, interval_idx) index pairs for every t in [lo, hi). Work is
    O(n_int * log n_pts + output) — no per-interval Python loop for the
    match expansion (np.repeat run construction)."""
    starts = np.searchsorted(t_sorted, lo, side="left")
    ends = np.searchsorted(t_sorted, hi, side="left")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    iv = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    run_off = np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.repeat(starts, counts) + (np.arange(total) - run_off)
    return pos, iv


class BroadcastRangeJoin:
    """Stateful map_batches stage for the small-intervals range join: each
    left row matches EVERY interval with lo <= t < hi (1->N fan-out).
    Intervals are fetched/prepared once per worker; each batch sorts its
    point column once and does two searchsorted passes per batch — zero
    shuffle."""

    def __init__(self, intervals_ref, on: str, lo_col: str, hi_col: str,
                 value_cols: List[str]):
        import ray

        iv = ray.get(intervals_ref) if not isinstance(
            intervals_ref, pd.DataFrame) else intervals_ref
        self.on = on
        self.lo = iv[lo_col].to_numpy()
        self.hi = iv[hi_col].to_numpy()
        self.vals = {c: iv[c].to_numpy() for c in value_cols}
        self.value_cols = value_cols

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(df[self.on].to_numpy(), kind="stable")
        t_sorted = df[self.on].to_numpy()[order]
        pos, iv = _overlap_emit(t_sorted, self.lo, self.hi)
        out = df.iloc[order[pos]].reset_index(drop=True)
        for c in self.value_cols:
            out[c] = self.vals[c][iv]
        return out


def range_join_broadcast(left, intervals: pd.DataFrame, *, on: str,
                         lo_col: str, hi_col: str, value_cols: List[str],
                         concurrency: int = 4):
    """Range (interval) join with a broadcast interval side (`ray.put`
    once, prepared once per worker). Inner join: left rows matching no
    interval are dropped; rows matching k intervals emit k times."""
    import ray

    ref = ray.put(intervals)
    return left.map_batches(
        BroadcastRangeJoin,
        fn_constructor_args=(ref, on, lo_col, hi_col, value_cols),
        batch_format="pandas",
        concurrency=concurrency,
        num_cpus=1,
    )


def range_join(left, intervals, *, on: str, lo_col: str, hi_col: str,
               value_cols: List[str], bucket_width: Optional[int] = None,
               num_buckets_hint: int = 64):
    """Scalable range join: the DOMAIN of ``on`` is cut into fixed-width
    buckets; left rows land in one bucket, each interval is replicated to
    every bucket it overlaps, then each bucket does the vectorized
    sorted-points overlap. ONE shuffle, bounded group count.

    Partitioning assumptions (document per call site): interval span /
    bucket_width is bounded (replication factor), and one bucket's rows fit
    a worker. Skewed domains want a smaller bucket_width on the hot range.
    """
    import ray

    if isinstance(intervals, pd.DataFrame):
        import ray.data as rd

        intervals = rd.from_pandas(intervals)

    if bucket_width is None:
        # scout min/max cheaply from the interval side (small by construction)
        bounds = intervals.map_batches(
            lambda df: pd.DataFrame({"lo": [df[lo_col].min()],
                                     "hi": [df[hi_col].max()]}),
            batch_format="pandas").to_pandas()
        span = float(bounds["hi"].max() - bounds["lo"].min())
        bucket_width = max(1, int(np.ceil(span / num_buckets_hint)))

    bw = int(bucket_width)
    int_cols = [lo_col, hi_col] + value_cols

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__side"] = np.int64(0)
        df["__bucket"] = (df[on].to_numpy().astype(np.int64) // bw)
        for c in int_cols:
            if c not in df.columns:
                df[c] = np.nan
        return df

    def explode_intervals(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[lo_col].to_numpy().astype(np.int64)
        hi = df[hi_col].to_numpy().astype(np.int64)
        b0 = lo // bw
        b1 = np.maximum(hi - 1, lo) // bw
        counts = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(df)), counts)
        run_off = np.repeat(np.cumsum(counts) - counts, counts)
        buckets = np.repeat(b0, counts) + (np.arange(counts.sum()) - run_off)
        out = df.iloc[idx].reset_index(drop=True)
        out["__side"] = np.int64(1)
        out["__bucket"] = buckets
        return out

    lschema = _pa_schema(left)
    left_cols = list(lschema.names)
    all_cols = left_cols + [c for c in int_cols if c not in left_cols] \
        + ["__side", "__bucket"]
    # NaN-padding the union upcasts ints to float; remember the left-side
    # dtypes so per_bucket can restore them after the side split
    left_dtypes = {f.name: f.type.to_pandas_dtype() for f in lschema
                   if pa.types.is_integer(f.type)
                   or pa.types.is_floating(f.type)}

    def pad(df: pd.DataFrame) -> pd.DataFrame:
        for c in all_cols:
            if c not in df.columns:
                df[c] = np.nan
        return df[all_cols]

    lt = left.map_batches(lambda d: pad(tag_left(d)), batch_format="pandas")
    it = intervals.map_batches(lambda d: pad(explode_intervals(d)),
                               batch_format="pandas")
    both = lt.union(it)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["__side"] == 0].copy()
        for c, dt in left_dtypes.items():
            lf[c] = lf[c].astype(dt)
        ivf = g[g["__side"] == 1]
        if not len(lf) or not len(ivf):
            return pd.DataFrame({
                c: pd.Series(dtype=left_dtypes.get(c, g[c].dtype))
                for c in all_cols if c not in ("__side", "__bucket")
            })
        t = lf[on].to_numpy()
        order = np.argsort(t, kind="stable")
        t_sorted = t[order]
        bucket = int(g["__bucket"].iloc[0])
        # clip each interval to this bucket so a replicated interval never
        # double-emits a (row, interval) pair across buckets
        lo = np.maximum(ivf[lo_col].to_numpy(), bucket * bw)
        hi = np.minimum(ivf[hi_col].to_numpy(), (bucket + 1) * bw)
        pos, iv = _overlap_emit(t_sorted, lo, hi)
        out = lf.iloc[order[pos]].reset_index(drop=True)
        ivf = ivf.reset_index(drop=True)
        for c in value_cols:
            out[c] = ivf[c].to_numpy()[iv]
        for c in [lo_col, hi_col]:
            out[c] = ivf[c].to_numpy()[iv]
        return out.drop(columns=["__side", "__bucket"])

    return both.groupby("__bucket").map_groups(
        per_bucket, batch_format="pandas")


# ------------------------------------------------------------ semi / anti
def hash_join_kw(num_partitions: Optional[int] = None,
                 join_type: str = "inner") -> dict:
    """Deadlock-proof sizing for ``Dataset.join``'s aggregator pool.

    Ray's hash join parks ``num_partitions`` aggregator ACTORS for the
    life of the operator; if their reserved CPUs cover the whole cluster
    the join's own mapper tasks pend forever and the job wedges (measured:
    8 x 0.5 CPU on a 4-CPU session — 4.0/4.0 CPU used, one 1-CPU mapper
    pending until killed). Cap the pool's total reservation at HALF the
    cluster's CPUs, scaling per-actor num_cpus down when the caller pins
    a high partition count on a small cluster."""
    cpus = cluster_cpus()
    if num_partitions is None:
        # scales with the cluster (a 1024-CPU cluster gets 64 aggregators,
        # each holding 1/64 of the build side) but still respects the
        # half-the-cluster reservation cap below
        num_partitions = max(2, min(64, cpus // 2))
    # no per-actor floor above 0.01: a floor breaks the half-cluster cap
    # when a caller pins num_partitions >> cpus (64 partitions on 4 CPUs
    # at a 0.05 floor would reserve 3.2 of 4 CPUs and re-create the
    # deadlock); at the residual 0.01 floor, also clamp a runaway
    # caller-supplied partition count so the reservation stays <= cpus/2
    num_partitions = max(2, min(num_partitions, int(cpus / 2.0 / 0.01)))
    agg_cpu = min(0.5, max(0.01, (cpus / 2.0) / num_partitions))
    # floor to 2 decimals — round() can round UP past the cap
    # (2/127 = 0.0157 -> 0.02 would reserve 127*0.02 = 2.54 on 4 CPUs)
    agg_cpu = max(0.01, int(agg_cpu * 100) / 100.0)
    return dict(
        join_type=join_type, num_partitions=num_partitions,
        aggregator_ray_remote_args={"memory": 256 << 20,
                                    "num_cpus": agg_cpu},
    )


def _distinct_keys(right, right_on: str, out_name: str):
    """Right side collapsed to its distinct keys BEFORE the shuffle (the
    semi/anti combiner: at most one row per distinct key per batch moves)."""
    from ray.data.aggregate import Count

    def keys_only(t: pa.Table) -> pa.Table:
        if len(t) == 0 and right_on not in t.column_names:
            return pa.table({out_name: pa.array([], pa.int64())})
        col = t[right_on].combine_chunks()
        return pa.table({out_name: col.unique()})

    return (
        right.map_batches(keys_only, batch_format="pyarrow")
        .groupby(out_name).aggregate(Count(alias_name="_n"))
        .select_columns([out_name])
    )


def semi_join(left, right, *, on: str, right_on: Optional[str] = None,
              num_partitions: Optional[int] = None):
    """Rows of ``left`` whose key appears in ``right`` (no right columns,
    no duplication). Shuffle variant: distinct right keys, then one hash
    join — use ``broadcast_semi_join`` when the key set fits a task."""
    from etl_ray.ops.components import _nonempty

    keys = _nonempty(_distinct_keys(right, right_on or on, "__semi_key"))
    joined = _nonempty(left).join(
        keys, on=(on,), right_on=("__semi_key",),
        **hash_join_kw(num_partitions))

    # The join may merge the right key into the left key column; drop the
    # marker column only when it survives.
    def tidy(t: pa.Table) -> pa.Table:
        if "__semi_key" in t.column_names:
            return t.drop_columns(["__semi_key"])
        return t

    return joined.map_batches(tidy, batch_format="pyarrow")


def anti_join(left, right, *, on: str, right_on: Optional[str] = None,
              num_partitions: Optional[int] = None):
    """Rows of ``left`` whose key does NOT appear in ``right``: left_outer
    against the distinct right keys + null filter on the marker."""
    import pyarrow.compute as pc

    from etl_ray.ops.components import _nonempty

    keys = _nonempty(
        _distinct_keys(right, right_on or on, "__anti_key").map_batches(
            lambda t: t.append_column(
                "__anti_hit", pa.array(np.ones(len(t), np.int8))),
            batch_format="pyarrow",
        ))
    joined = _nonempty(left).join(
        keys, on=(on,), right_on=("__anti_key",),
        **hash_join_kw(num_partitions, join_type="left_outer"))

    def miss_only(t: pa.Table) -> pa.Table:
        if "__anti_hit" not in t.column_names:
            return t
        keep = pc.is_null(t["__anti_hit"])
        return t.filter(keep).drop_columns(
            [c for c in ("__anti_hit", "__anti_key") if c in t.column_names])

    return joined.map_batches(miss_only, batch_format="pyarrow")


def except_keys(left, right, *, on: str, right_on: Optional[str] = None,
                num_partitions: Optional[int] = None):
    """SQL EXCEPT on a key column: DISTINCT ``left`` keys with no match in
    ``right``. Left collapses to distinct keys per batch before the single
    hash anti-join (which collapses the right side itself) — the exchange
    moves only distinct keys, never data rows."""
    lk = _distinct_keys(left, on, on)
    return anti_join(lk, right, on=on, right_on=right_on,
                     num_partitions=num_partitions)


def intersect_keys(left, right, *, on: str, right_on: Optional[str] = None,
                   num_partitions: Optional[int] = None):
    """DISTINCT keys present on BOTH sides (SQL INTERSECT on a key
    column). Both sides collapse to distinct keys per batch before the
    single hash join — the exchange moves only distinct keys."""
    from etl_ray.ops.components import _nonempty

    lk = _nonempty(_distinct_keys(left, on, on))
    rk = _nonempty(_distinct_keys(right, right_on or on, "__ik"))
    joined = lk.join(rk, on=(on,), right_on=("__ik",),
                     **hash_join_kw(num_partitions))

    def tidy(t: pa.Table) -> pa.Table:
        if "__ik" in t.column_names:
            return t.drop_columns(["__ik"])
        return t

    return joined.map_batches(tidy, batch_format="pyarrow")


def broadcast_semi_join(left, key_values, *, on: str, keep: bool = True):
    """Key set broadcast via ``ray.put``; one vectorized ``isin`` per
    batch, zero shuffle. ``keep=False`` turns it into an anti join."""
    import ray
    import pyarrow.compute as pc

    ref = ray.put(np.asarray(list(key_values)))

    def f(t: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.is_in(t[on], value_set=pa.array(ks))
        if not keep:
            mask = pc.invert(mask)
        return t.filter(mask)

    return left.map_batches(f, batch_format="pyarrow")
