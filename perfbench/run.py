"""Benchmark entry point.

    python3 perfbench/run.py --workload bulk_backfill --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics and the
tracing overhead. Progress and diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import etl_ray  # the engine under test
    except ImportError as e:
        print(f"cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(etl_ray.__file__).startswith(ROOT + os.sep):
        print(f"etl_ray resolves to {etl_ray.__file__}, outside {ROOT}",
              file=sys.stderr)
        return 2
    from perfbench.driver import Bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    result = bench.run()
    sys.stderr.flush()
    print(json.dumps(result), flush=True)
    if bench.stalled:
        # a stalled operation's thread may still be inside Ray; its
        # processes are stopped, so leave without waiting for it
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
