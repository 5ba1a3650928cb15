"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload tail_commits --seeds 1-10 \
        --seconds 25 --out spread.json

Each seed is one fresh ``run.py`` process, exactly as a benchmark harness
runs it. The spread of a metric is the distance between the first and the
third quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write runs and spreads as JSON here")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else None
        runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                     "result": res})
        vals = {k: round(v["value"], 4)
                for k, v in (res or {}).get("metrics", {}).items()}
        print(f"seed {seed}: exit {proc.returncode} wall {wall:.1f}s "
              f"correct {res and res['correct']} {json.dumps(vals)}",
              flush=True)

    ok = [r["result"] for r in runs if r["result"] and r["result"]["correct"]]
    summary = {}
    if len(ok) >= 2:
        for name in ok[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in ok]
            summary[name] = {"median": statistics.median(vals),
                             "spread": spread(vals)}
            print(f"{name:28s} median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['spread']:.4f}")
    print(f"max run wall {max(r['wall_s'] for r in runs):.1f}s, "
          f"{len(ok)}/{len(runs)} correct")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
