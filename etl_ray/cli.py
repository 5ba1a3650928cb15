"""CLI driver — the ``ray job submit`` entry point.

The analog of the reference's worker process entry points
(/root/reference/cmd/etl_worker/etl_worker.go:118-158 one-shot HTTP task,
active polling loop poller.go:197-216) re-expressed as batch job commands:

    ray job submit --working-dir . -- python -m etl_ray replay \
        --wal /data/wal --lake /data/lake --num-partitions 64
    python -m etl_ray replay --wal WAL --lake LAKE [--poll SECONDS]
    python -m etl_ray bootstrap --base base.parquet --lake LAKE
    python -m etl_ray compact --lake LAKE [--force]
    python -m etl_ray status --lake LAKE
    python -m etl_ray gc --lake LAKE
    python -m etl_ray export --lake LAKE --out DIR   # JSONL export

Only this CLI owns the Ray session (guarded init; the library never calls
ray.init). ``--poll`` turns replay into the Gardener-style tail loop: sleep,
re-list the WAL, apply anything new (active/poller.go:152-216).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _init_ray(num_cpus=None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False,
                      ignore_reinit_error=True, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _config(args):
    from etl_ray.config import EngineConfig

    kw = {}
    for name in ("num_partitions", "max_salt", "batch_size", "salt_threshold",
                 "skip_count"):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    if getattr(args, "exchange_root", None):
        kw["exchange_root"] = args.exchange_root
    return EngineConfig(**kw)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="etl_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--lake", required=True)
        sp.add_argument("--num-partitions", type=int, default=None,
                        dest="num_partitions")
        sp.add_argument("--max-salt", type=int, default=None, dest="max_salt")
        sp.add_argument("--batch-size", type=int, default=None,
                        dest="batch_size")
        sp.add_argument("--salt-threshold", type=int, default=None,
                        dest="salt_threshold")
        sp.add_argument("--skip-count", type=int, default=None,
                        dest="skip_count")
        sp.add_argument("--exchange-root", default=None, dest="exchange_root")

    sp = sub.add_parser("replay", help="apply unapplied WAL segments")
    sp.add_argument("--wal", required=True)
    sp.add_argument("--segments-per-commit", type=int, default=None)
    sp.add_argument("--poll", type=float, default=None,
                    help="tail loop: re-check the WAL every N seconds")
    common(sp)

    sp = sub.add_parser("bootstrap", help="commit an initial base table "
                        "(one Parquet file, validated) to an empty lake")
    sp.add_argument("--base", required=True)
    common(sp)

    sp = sub.add_parser("compact", help="promote, fold or merge delta runs "
                        "(prints the promoted/minor/major counts)")
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--min-deltas", type=int, default=None)
    common(sp)

    sp = sub.add_parser("status", help="print manifest summary")
    sp.add_argument("--lake", required=True)

    sp = sub.add_parser("gc", help="remove uncommitted orphan files")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--prune", type=int, default=None, metavar="KEEP_LAST",
                    help="also retire history: keep only the last N manifest"
                         " versions, then reclaim their files (VACUUM)")

    sp = sub.add_parser("export", help="export live rows as JSONL")
    sp.add_argument("--out", required=True)
    common(sp)

    sp = sub.add_parser(
        "sigindex", help="build or delta-refresh the lake's MinHash "
                         "signature index (ops/dedup_ivm.py)")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--name", default="minhash_sigs")
    sp.add_argument("--text-col", default="text", dest="text_col")
    sp.add_argument("--build", action="store_true",
                    help="full (re)build at head instead of a refresh")

    sp = sub.add_parser(
        "shards", help="export live rows as resumable hash-sharded "
                       "training parquet (ops/export.py)")
    sp.add_argument("--lake", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-shards", type=int, default=64, dest="n_shards")
    sp.add_argument("--tokens-col", default=None, dest="tokens_col")

    sp = sub.add_parser(
        "worker", help="HTTP one-shot worker (/v2/worker, /replay, /status)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8080)
    sp.add_argument("--num-cpus", type=int, default=None)

    sp = sub.add_parser(
        "poll", help="pull jobs from a Gardener-style tracker and parse "
                     "them (POST /v2/job/{next,heartbeat,update})")
    sp.add_argument("--tracker", required=True,
                    help="tracker base URL, e.g. http://gardener:8080")
    sp.add_argument("--max-jobs", type=int, default=None)
    sp.add_argument("--period", type=float, default=0.0,
                    help="pause between jobs (the reference's poll tick)")
    sp.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    if args.cmd == "poll":
        from etl_ray.tracker import poll

        _init_ray(args.num_cpus)
        done = poll(args.tracker, max_jobs=args.max_jobs,
                    period=args.period)
        print(json.dumps(done))
        return 0

    if args.cmd == "worker":
        from etl_ray.service import WorkerService

        _init_ray(args.num_cpus)
        svc = WorkerService(args.host, args.port)
        print(f"worker listening on {args.host}:{svc.port}", flush=True)
        svc.serve_forever()
        return 0

    if args.cmd == "status":
        from etl_ray.state.manifest import Manifest

        m = Manifest.load(args.lake)
        print(json.dumps(
            {
                "version": m.version,
                "num_partitions": m.num_partitions,
                "applied_through_segment": m.applied_through_segment,
                "live_files": len(m.live_files()),
                "quarantine_files": len(m.quarantine_files),
                "lineage": m.lineage,
                "last_commits": Manifest.history(args.lake, last=3),
            },
            default=str,
        ))
        return 0

    if args.cmd == "gc":
        from etl_ray.state.manifest import Manifest

        m = Manifest.load(args.lake)
        removed = m.prune(args.prune) if args.prune is not None else m.gc()
        print(json.dumps({"removed": removed}))
        return 0

    _init_ray(args.num_cpus)
    try:
        if args.cmd == "replay":
            from etl_ray.pipelines.replay import replay

            cfg = _config(args)
            while True:
                commits = replay(args.wal, args.lake, cfg,
                                 segments_per_commit=args.segments_per_commit)
                for c in commits:
                    print(json.dumps(c.to_json()))
                if args.poll is None:
                    break
                time.sleep(args.poll)
            return 0
        if args.cmd == "bootstrap":
            from etl_ray.pipelines.replay import bootstrap

            m = bootstrap(args.base, args.lake, _config(args))
            print(json.dumps({"version": m.version,
                              "partitions": len(m.partitions)}))
            return 0
        if args.cmd == "compact":
            from etl_ray.pipelines.compaction import compact

            res = compact(args.lake, _config(args), force=args.force,
                          min_deltas=args.min_deltas)
            print(json.dumps(res))
            return 0
        if args.cmd == "export":
            from etl_ray.lake import read_lake
            from etl_ray.sinks import write_jsonl

            stats = write_jsonl(read_lake(args.lake, include_seq=True),
                                args.out)
            print(json.dumps({"files": len(stats),
                              "rows": int(stats["rows"].sum())}))
            return 0
        if args.cmd == "sigindex":
            from etl_ray.ops.dedup_ivm import (_load_meta,
                                               build_signature_index,
                                               refresh_signature_index)

            # decide build-vs-refresh by the META SENTINEL, not by
            # catching FileNotFoundError — a refresh that raises it has
            # LOST index/lake files, which must surface, not silently
            # degrade into an O(corpus) rebuild
            meta = _load_meta(args.lake, args.name)
            if args.build or meta is None:
                s = build_signature_index(args.lake, name=args.name,
                                          text_col=args.text_col)
            else:
                if args.text_col != meta.get("text_col"):
                    raise SystemExit(
                        f"index '{args.name}' was built over "
                        f"text_col={meta.get('text_col')!r}; a refresh "
                        f"cannot change it — pass --build to rebuild "
                        f"over {args.text_col!r}")
                s = refresh_signature_index(args.lake, name=args.name)
            print(json.dumps(s))
            return 0
        if args.cmd == "shards":
            from etl_ray.lake import read_lake
            from etl_ray.ops.export import export_shards

            m = export_shards(read_lake(args.lake), args.out,
                              n_shards=args.n_shards,
                              tokens_col=args.tokens_col)
            print(json.dumps({
                "shards": len(m),
                "written": int((~m["skipped"]).sum()),
                "skipped": int(m["skipped"].sum()),
                "n_docs": int(m["n_docs"].sum()),
                "n_tok": int(m["n_tok"].sum()),
            }))
            return 0
    finally:
        import ray

        ray.shutdown()
    return 1


if __name__ == "__main__":
    sys.exit(main())
