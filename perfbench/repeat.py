#!/usr/bin/env python3
"""Repeat benchmark runs of one workload and summarise them.

    python3 perfbench/repeat.py --workload NAME [--seed 1]
    python3 perfbench/repeat.py --workload NAME --trace [--seed 1]

Every run measures for BENCHMARK.json's run_seconds.  Untraced, the
script makes 10 runs, run i with seed SEED+i, and prints for each
end-to-end metric the median, the quartiles and their distance as a share
of the median (`statistics.quantiles(values, n=4)`) next to the metric's
bound in BENCHMARK.json.  Traced, it makes 2 runs, both with SEED, and fails
unless every count and ratio (every per-layer metric not in seconds)
repeats exactly.  Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: seed {seed}: run.py exited {out.returncode}: {out.stderr.strip()}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: seed {seed}: outputs differ from the reference")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    runs = 2 if args.trace else 10
    results = []
    for i in range(runs):
        seed = args.seed if args.trace else args.seed + i
        results.append(run(args.workload, seed, seconds, args.trace))
        print(f"run {i + 1}/{runs} (seed {seed}) done", file=sys.stderr)
    if args.trace:
        differ = [name for name, m in results[0].items() if m["unit"] != "s"
                  and any(r[name]["value"] != m["value"] for r in results[1:])]
        for name, m in sorted(results[0].items()):
            if m["unit"] != "s":
                print(f"{name:45s} {m['value']}")
        if differ:
            sys.exit(f"error: counts differ between runs: {differ}")
        print(f"all counts repeat exactly over {runs} runs of seed {args.seed}")
        return
    for metric in bench["end_to_end"]:
        values = [r[metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:12s} median {statistics.median(values):.6g} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
              f"(bound {metric['bound']}, {spread / metric['bound']:.2f} of it)")


if __name__ == "__main__":
    main()
