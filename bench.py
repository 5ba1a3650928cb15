"""Benchmark harness.

Headline: end-to-end CDC replay (change-events/sec applied) of a seeded
synthetic tokens changelog sized by the scale factor, through the full
engine: read → validate → storage-exchange hash partition → per-bucket
apply → manifest commit. Plus compaction, merge-on-read, incremental catch-up, and
the training-data ops over the driver tables.

    GRAFT_SF_DIR=/root/testdata/sf0.1 RAY_GRAFT_CPUS=32 python bench.py
    python bench.py --scaling     # same input at 8 and 32 CPUs, fresh
                                  # processes; reports scaling efficiency

Prints ONE JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# scaling children run headline-only (2 timed runs, no op micro-benches)
# so the two-level comparison fits one bench budget
LIGHT = os.environ.get("GRAFT_BENCH_LIGHT") == "1"
EVENTS_PER_SF = 20_000_000  # sf0.1 → 2M events (~1 GB of token payload)
BENCH_ROOT = "/tmp/etl_ray_bench"


def pa_table_from_matrix(M):
    """(n, d) float32 → Arrow table {vec_id, embedding list<float>} without
    per-row Python."""
    import numpy as np
    import pyarrow as pa

    n, d = M.shape
    flat = pa.array(M.reshape(-1))
    emb = pa.FixedSizeListArray.from_arrays(flat, d).cast(
        pa.list_(pa.float32()))
    return pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                     "embedding": emb})


def sf_of(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def ensure_wal(sf: float) -> tuple[str, int]:
    """Deterministic cached changelog for this scale factor."""
    from etl_ray.sources.generator import generate_changelog

    n_events = max(int(EVENTS_PER_SF * sf), 10_000)
    n_segments = max(8, min(64, n_events // 100_000))
    wal = os.path.join(BENCH_ROOT, f"sf{sf}", "wal")
    stamp = os.path.join(wal, "_params.json")
    params = {"n_events": n_events, "n_segments": n_segments, "seed": 42,
              "version": 4}
    if os.path.exists(stamp):
        with open(stamp) as f:
            if json.load(f) == params:
                return wal, n_events
        shutil.rmtree(wal)
    os.makedirs(wal, exist_ok=True)
    generate_changelog(wal, n_events=n_events, n_segments=n_segments,
                       n_base_docs=n_events // 20, seed=42,
                       min_tok=16, max_tok=256)
    with open(stamp, "w") as f:
        json.dump(params, f)
    return wal, n_events


def warm_cache(path: str) -> None:
    for root, _d, files in os.walk(path):
        for fn in files:
            with open(os.path.join(root, fn), "rb") as f:
                while f.read(1 << 24):
                    pass


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NCPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from etl_ray.config import EngineConfig
    from etl_ray.lake import read_lake
    from etl_ray.pipelines.compaction import compact
    from etl_ray.pipelines.replay import replay
    from etl_ray.sources.generator import generate_changelog

    sf = sf_of(SF_DIR)
    wal, n_events = ensure_wal(sf)
    warm_cache(wal)
    # RAM-backed exchange root: the transient fragments skip the disk
    cfg = EngineConfig(num_partitions=64, max_salt=8, batch_size=32768,
                      exchange_root="/dev/shm/etl_ray_exchange")

    queries: dict[str, float] = {}

    # Steady-state methodology: one untimed warm-up replay first. This VM
    # (snapshot-restored Firecracker) charges a large one-time cost for the
    # first touch of every memory page in each fresh worker process; the
    # warm-up pays that and spins the worker pool, so the timed runs measure
    # the engine, not the sandbox's lazy paging.
    wl = tempfile.mkdtemp(prefix="etl_ray_warmlake_")
    replay(wal, wl, cfg)
    shutil.rmtree(wl, ignore_errors=True)

    runs = []
    lake = None
    for _ in range(2 if LIGHT else 3):
        if lake:
            shutil.rmtree(lake, ignore_errors=True)
        lake = tempfile.mkdtemp(prefix="etl_ray_benchlake_")
        t0 = time.monotonic()
        commits = replay(wal, lake, cfg)
        runs.append(round(time.monotonic() - t0, 3))
    replay_sec = min(runs)
    queries["cdc_replay"] = replay_sec
    applied = sum(c.events_in for c in commits)

    if LIGHT:
        # a CPU-bound op at the same two levels: the e2e replay on this
        # shared-memory/disk box is bandwidth-bound (see BASELINE.md), so the
        # scaling evidence for compute is carried by this number. The probe
        # is the MinHash SIGNATURE stage alone (embarrassingly-parallel
        # map_batches, no shuffle): the full LSH pipeline is dominated by
        # Ray's fixed per-shuffle overhead at this toy scale, which measures
        # the framework, not the operator.
        import ray.data as rd

        from etl_ray.ops.dedup import MinHasher

        docs_path = os.path.join(SF_DIR, "documents.parquet")
        if os.path.exists(docs_path):
            # read the corpus 64x and hash in small batches: ~40 s of
            # single-core work across thousands of tasks, so the scaling
            # signal beats per-task scheduling noise and fixed overheads
            def mh():
                return rd.read_parquet(
                    [docs_path] * 64, columns=["doc_id", "text"]
                ).map_batches(
                    MinHasher(num_perm=128), batch_format="pyarrow",
                    batch_size=128,
                ).count()

            mh()
            best = None
            for _ in range(2):
                t0 = time.monotonic()
                mh()
                dt = time.monotonic() - t0
                best = dt if best is None else min(best, dt)
            queries["minhash_signatures"] = round(best, 3)
        n_live = read_lake(lake).count()
        shutil.rmtree(lake, ignore_errors=True)
        ray.shutdown()
        return {
            "metric": "cdc_replay_wall_sec",
            "value": round(replay_sec, 3),
            "unit": "sec",
            "queries": queries,
            "sf": sf,
            "num_cpus": NCPUS,
            "events_applied": applied,
            "events_per_sec": round(applied / replay_sec, 1),
            "replay_runs_sec": runs,
            "rows_live": n_live,
        }

    t0 = time.monotonic()
    compact(lake, cfg, force=True)
    queries["compaction"] = round(time.monotonic() - t0, 3)

    t0 = time.monotonic()
    n_live = read_lake(lake).count()
    queries["read_merge"] = round(time.monotonic() - t0, 3)

    # incremental catch-up: +5% new events arriving after the bulk load
    inc = max(n_events // 20, 1000)
    generate_changelog(wal, n_events=inc, n_segments=2,
                       n_base_docs=n_events // 20, seed=43,
                       start_sequence=n_events,
                       start_segment=1_000)
    t0 = time.monotonic()
    replay(wal, lake, cfg)
    queries["cdc_incremental"] = round(time.monotonic() - t0, 3)
    # drop the incremental segments so reruns see a pristine cached WAL
    for fn in os.listdir(wal):
        if fn.startswith("seg-01"):
            os.remove(os.path.join(wal, fn))

    # training-data ops over the driver tables (each timed on its second
    # run: the first pays the sandbox's first-touch page faults in every
    # fresh worker, which is not the op's cost)
    import ray.data as rd

    def timed_op(fn):
        fn()
        t0 = time.monotonic()
        fn()
        return round(time.monotonic() - t0, 3)

    docs_path = os.path.join(SF_DIR, "documents.parquet")
    emb_path = os.path.join(SF_DIR, "embeddings.parquet")
    if os.path.exists(docs_path):
        from etl_ray.ops.dedup import exact_dedup, minhash_lsh_candidates
        from etl_ray.ops.textops import quality_scores

        queries["dedup_exact"] = timed_op(lambda: exact_dedup(
            rd.read_parquet(docs_path, columns=["doc_id", "text"])).count())
        queries["dedup_minhash_lsh"] = timed_op(lambda: minhash_lsh_candidates(
            rd.read_parquet(docs_path, columns=["doc_id", "text"])).count())
        queries["text_quality"] = timed_op(lambda: quality_scores(
            rd.read_parquet(docs_path, columns=["doc_id", "text"])).count())

        # incremental dedup-index maintenance: full build at v1 vs a
        # delta refresh after the update/delete commits. Single timed
        # runs (a second refresh is a no-op) — the headline is the
        # build:refresh ratio, the O(corpus) vs O(changes) evidence.
        from etl_ray.ops.dedup_ivm import (build_signature_index,
                                           refresh_signature_index)
        from etl_ray.pipelines import analogs as A

        wal2, lake2 = A.fresh_dirs("benchsig")
        A.docs_to_changelog(SF_DIR, wal2)
        cfg2 = EngineConfig(num_partitions=cfg.num_partitions,
                                                payload=A.docs_payload())
        replay(wal2, lake2, cfg2, segments_per_commit=1)
        t0 = time.monotonic()
        build_signature_index(lake2, version=1)
        queries["sig_index_build"] = round(time.monotonic() - t0, 3)
        t0 = time.monotonic()
        s = refresh_signature_index(lake2)
        queries["sig_index_refresh"] = round(time.monotonic() - t0, 3)
        # fraction of the WHOLE index re-hashed (s["n_docs"] counts only
        # dirty partitions; carried-forward partitions contribute 0 work)
        n_index = read_lake(lake2).count()
        queries["sig_index_refresh_frac_rehashed"] = round(
            s["n_recomputed"] / max(n_index, 1), 6)
        shutil.rmtree(os.path.dirname(lake2), ignore_errors=True)

    if os.path.exists(emb_path):
        import numpy as np
        import pyarrow.parquet as pq

        from etl_ray.ops.similarity import cosine_topk

        qt = pq.read_table(emb_path, columns=["vec_id", "embedding"]).slice(0, 16)
        Q = np.array(qt["embedding"].to_pylist(), dtype=np.float64)
        queries["ann_cosine_topk"] = timed_op(lambda: cosine_topk(
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"]),
            qt["vec_id"].to_numpy(zero_copy_only=False), Q, k=10,
            concurrency=max(2, NCPUS - 2)))

        # IVF vs brute force at 100k vectors, same k: pruning must WIN
        # wall-clock while holding recall (verdict r02 #6). The corpus is a
        # deterministic 100k x 64 float32 matrix; nprobe/nlist sized for
        # ~8x fewer scored cells than brute force.
        from etl_ray.ops.similarity import ivf_build, ivf_topk

        rng = np.random.default_rng(17)
        n_ivf, dim = 100_000, 64
        M = rng.standard_normal((n_ivf, dim)).astype(np.float32)
        big = rd.from_arrow(pa_table_from_matrix(M)).repartition(
            max(8, NCPUS)).materialize()
        Qi = M[:16].astype(np.float64)
        q_ids = np.arange(16, dtype=np.int64)
        conc = max(2, NCPUS - 2)
        brute = {}
        queries["ann_brute_100k"] = timed_op(lambda: brute.update(
            r=cosine_topk(big, q_ids, Qi, k=10, concurrency=conc)))
        # build timed on its second run like every timed_op metric (the
        # first pays worker warm-up, not the op's cost; r4's single-run
        # number swung 9.8x on host noise)
        built = {}
        queries["ann_ivf_build_100k"] = timed_op(lambda: built.update(
            r=ivf_build(big, dim=dim, nlist=64, seed=17, concurrency=conc)))
        indexed, C = built["r"]
        ivf = {}
        queries["ann_ivf_100k"] = timed_op(lambda: ivf.update(
            r=ivf_topk(indexed, q_ids, Qi, k=10, nprobe=8,
                       concurrency=conc, centroids=C)))
        exact_sets = {q: set(g["vec_id"]) for q, g in
                      brute["r"].groupby("query_id")}
        hits = sum(len(set(g["vec_id"]) & exact_sets[q])
                   for q, g in ivf["r"].groupby("query_id"))
        queries["ann_ivf_recall_at_10"] = round(
            hits / (10 * len(exact_sets)), 3)

        # cell-partitioned lake: only probed cells are READ — scan bytes
        # must track nprobe/nlist (8/64), not the corpus size
        from etl_ray.ops.similarity import ivf_persist, ivf_topk_partitioned

        # persist: warm run to a scratch dir, timed run to the real root
        scratch = tempfile.mkdtemp(prefix="etl_ray_ivfwarm_")
        ivf_persist(indexed, scratch)
        shutil.rmtree(scratch, ignore_errors=True)
        ivf_root = tempfile.mkdtemp(prefix="etl_ray_ivfbench_")
        t0 = time.monotonic()
        ivf_persist(indexed, ivf_root)
        queries["ann_ivf_persist_100k"] = round(time.monotonic() - t0, 3)
        part = {}
        queries["ann_ivf_part_100k"] = timed_op(lambda: part.update(
            r=ivf_topk_partitioned(ivf_root, q_ids, Qi, centroids=C, k=10,
                                   nprobe=8, concurrency=conc)))
        pres, pstats = part["r"]
        queries["ann_ivf_part_scan_frac"] = round(
            pstats["bytes_read"] / pstats["bytes_total"], 4)
        phits = sum(len(set(g["vec_id"]) & exact_sets[q])
                    for q, g in pres.groupby("query_id"))
        queries["ann_ivf_part_recall_at_10"] = round(
            phits / (10 * len(exact_sets)), 3)
        # the 16-query batch's probed-cell UNION covers most cells by
        # design; the per-query pruning bound is the 1-query scan fraction
        # (→ nprobe/nlist = 8/64 ± cell-size skew)
        _res1, pstats1 = ivf_topk_partitioned(
            ivf_root, q_ids[:1], Qi[:1], centroids=C, k=10, nprobe=8,
            concurrency=2)
        queries["ann_ivf_part_scan_frac_1q"] = round(
            pstats1["bytes_read"] / pstats1["bytes_total"], 4)
        shutil.rmtree(ivf_root, ignore_errors=True)

    shutil.rmtree(lake, ignore_errors=True)
    ray.shutdown()
    return {
        "metric": "cdc_replay_wall_sec",
        "value": round(replay_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NCPUS,
        "events_applied": applied,
        "events_per_sec": round(applied / replay_sec, 1),
        "replay_runs_sec": runs,
        "rows_live": n_live,
    }


def run_scaling() -> dict:
    """Same job at two parallelism levels in fresh processes.

    Host noise on this shared sandbox is extreme and bursty (identical runs
    spread 8.6-25 s; a trivial 80k-row groupby was once measured at 200 s),
    so the levels are run in INTERLEAVED passes (lo, hi, lo, hi) and each
    level reports its MIN — the standard steady-state estimator under
    asymmetric noise. All raw runs are included for transparency.
    """

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_LIGHT="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    levels = os.environ.get("GRAFT_SCALING_LEVELS", "8,32")
    lo, hi = (int(x) for x in levels.split(","))
    passes = int(os.environ.get("GRAFT_SCALING_PASSES", "2"))
    runs_lo, runs_hi = [], []
    for _ in range(passes):
        runs_lo.append(run(lo))
        runs_hi.append(run(hi))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    mh_lo = min(r["queries"].get("minhash_signatures", 1e9) for r in runs_lo)
    mh_hi = min(r["queries"].get("minhash_signatures", 1e9) for r in runs_hi)
    cpu_eff = round((mh_lo / mh_hi) / (hi / lo), 3) \
        if mh_lo < 1e9 and mh_hi < 1e9 else None
    return {
        "metric": "scaling_efficiency",
        "cpu_bound_scaling_efficiency": cpu_eff,
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "events_per_sec_lo": r_lo["events_per_sec"],
        "events_per_sec_hi": r_hi["events_per_sec"],
        "all_runs_sec_lo": [r["value"] for r in runs_lo],
        "all_runs_sec_hi": [r["value"] for r in runs_hi],
        "minhash_signatures_sec": {"lo": mh_lo, "hi": mh_hi},
        "sf": r_lo["sf"],
        "queries": {"lo": r_lo["queries"], "hi": r_hi["queries"]},
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
