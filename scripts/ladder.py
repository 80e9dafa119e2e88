#!/usr/bin/env python3
"""CPU time of the moduli report up the size ladder T^2 x I.

Usage:  python3 scripts/ladder.py [--theory T ...] [--m M ...] [-k K]

For each theory T (bf, cs, scalar or ed; default ed) and each M (default
5 and 6), builds the theory on `corpus.torus_times_interval(M)` and runs
`moduli_report(ReducedModel(...))` in this process, inside
`complexes.shared_eliminations()`, as one `bvbfv moduli` op does.  Each
pair runs K times (default 2), on a freshly built complex each time, so no
per-complex cache carries over from one run to the next.  The complex is
built outside the timed region; theory build, model and report are inside.

Printed per pair: the best `time.process_time` of the K runs, the bulk
field dimension, and the sha256 of the report, rendered as the CLI renders
its tables, so that two checkouts can be compared for time and for output
at once.  Needs the standard library only.
"""

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bvbfv import corpus  # noqa: E402
from bvbfv.cli import KIND_ALIASES, render_value  # noqa: E402
from bvbfv.complexes import shared_eliminations  # noqa: E402
from bvbfv.moduli import ReducedModel, moduli_report  # noqa: E402
from bvbfv.theories import theory_from_config  # noqa: E402

THEORIES = ("bf", "cs", "scalar", "ed")


def run(theory, m):
    """(CPU seconds, bulk dimension, report sha256) of one build + report."""
    cx = corpus.torus_times_interval(m)
    t0 = time.process_time()
    with shared_eliminations():
        t = theory_from_config(cx, {"kind": KIND_ALIASES.get(theory, theory)})
        report = moduli_report(ReducedModel(t))
    cpu = time.process_time() - t0
    blob = json.dumps(render_value(report), sort_keys=True).encode()
    return cpu, t.bulk.total, hashlib.sha256(blob).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theory", nargs="+", choices=THEORIES, default=["ed"])
    ap.add_argument("--m", nargs="+", type=int, default=[5, 6])
    ap.add_argument("-k", type=int, default=2, help="runs per pair; the best is printed")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("-k must be at least 1")
    if any(m < 3 for m in args.m):
        ap.error("--m must be at least 3 (the smallest torus)")
    print(f"{'theory':8} {'m':>3} {'bulk':>6} {'best cpu s':>11}  report sha256")
    for theory in args.theory:
        for m in args.m:
            runs = [run(theory, m) for _ in range(args.k)]
            if len({digest for _, _, digest in runs}) != 1:
                print(f"error: {theory} m={m}: the report differs between runs",
                      file=sys.stderr)
                return 2
            best = min(cpu for cpu, _, _ in runs)
            _, bulk, digest = runs[0]
            print(f"{theory:8} {m:>3} {bulk:>6} {best:11.3f}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
