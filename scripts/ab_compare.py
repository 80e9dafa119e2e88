#!/usr/bin/env python3
"""Interleaved before/after timing of two bvbfv checkouts in one process.

Usage:  python3 scripts/ab_compare.py A B WORKLOAD N [--seed S]

A and B are roots of two bvbfv checkouts (say the parent commit and the
change).  Both `bvbfv` packages are imported into this process, each from
its own `src/`; before each op the modules of the side that runs it are
put in `sys.modules`.  WORKLOAD names a workload of `perfbench/workloads.py`
in this script's own checkout, and both sides read that checkout's corpus.
Each of the N passes runs the workload's ops in an order shuffled by the
seed, and runs every op on both sides back to back, A first in the first,
third, ... pass and B first in the others, so that a drift of the host's
speed falls on both sides alike.  Every run's exit code and
structured-report sha256 are checked against `perfbench/reference.json`.

Printed: per op, the minimum wall time of each side and their ratio B/A,
and the same for CPU time (`time.process_time`), which a busy host moves
less than wall time; then per side the median pass time (sum of its ops'
wall times in one pass), the ratio of the medians, and the number of
passes in which B took less time than A, and the same for CPU pass times.
Last come deterministic work counts, from one more pass per side that is
not timed, with that side's `linalg._echelon` and `RatMatrix.__mul__`
wrapped: per side the eliminations, the nonzeros of their reduced rows,
the matrix products and their integer multiply-adds.  These do not move
with the host's speed, so they show a change of work where the times
are too noisy to.
Exits 2 when any run differs from its reference.
Needs the standard library only.
"""

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

CLOCKS = ("wall", "cpu")
WORK = ("eliminations", "reduced-row nonzeros", "products", "multiply-adds")


def _ours(name):
    return name == "bvbfv" or name.startswith("bvbfv.")


def _drop_modules():
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]


def load(checkout):
    """(cli, modules): bvbfv.cli and every bvbfv module, imported from the
    checkout's src/."""
    src = os.path.join(os.path.abspath(checkout), "src")
    pkg = os.path.join(src, "bvbfv")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        sys.exit(f"error: no bvbfv sources under {src}")
    _drop_modules()
    sys.path.insert(0, src)
    try:
        for info in pkgutil.iter_modules([pkg]):
            importlib.import_module(f"bvbfv.{info.name}")
    finally:
        sys.path.remove(src)
    modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    for name, mod in modules.items():
        if not getattr(mod, "__file__", "").startswith(src):
            sys.exit(f"error: {name} imported from {mod.__file__}, not {src}")
    _drop_modules()
    return modules["bvbfv.cli"], modules


def run_op(side, argv, out):
    """One CLI call on a side; returns (wall s, CPU s, exit code or
    exception name, sha256 of the structured report or None)."""
    cli, modules = side
    _drop_modules()
    sys.modules.update(modules)
    if os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*argv, "--format", "structured", "--out", out])
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crash is the op's result, recorded by name
        code = type(e).__name__
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return wall, cpu, code, digest


def count_work(side, ops, out):
    """(counts, results): the WORK counts of one pass of ops on a side,
    with its `linalg._echelon` and `RatMatrix.__mul__` wrapped for the
    pass, and each op's (exit code, sha256)."""
    _, modules = side
    linalg = modules["bvbfv.linalg"]
    echelon, mul = linalg._echelon, linalg.RatMatrix.__mul__
    n = dict.fromkeys(WORK, 0)

    def counted_echelon(*args, **kwargs):
        pivots, red = echelon(*args, **kwargs)
        n["eliminations"] += 1
        n["reduced-row nonzeros"] += sum(map(len, red))
        return pivots, red

    def counted_mul(a, b):
        c = mul(a, b)
        if c is not NotImplemented:
            # a * b multiplies each entry (i, k) of a by the row k of b
            per_row = collections.Counter(k for k, _ in b.ints)
            n["products"] += 1
            n["multiply-adds"] += sum(per_row[k] for _, k in a.ints)
        return c

    linalg._echelon, linalg.RatMatrix.__mul__ = counted_echelon, counted_mul
    try:
        results = [run_op(side, op, out)[2:] for op in ops]
    finally:
        linalg._echelon, linalg.RatMatrix.__mul__ = echelon, mul
    return n, results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="root of the first (before) checkout")
    ap.add_argument("b", help="root of the second (after) checkout")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("n", type=int, help="number of passes")
    ap.add_argument("--seed", type=int, default=0, help="seed of the op order")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("N must be at least 1")
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        ref = json.load(fh)
    ops = WORKLOADS[args.workload][0]
    sides = {"A": load(args.a), "B": load(args.b)}
    # ops name corpus files relative to a checkout root
    os.chdir(ROOT)
    rng = random.Random(args.seed)
    # per clock ("wall", "cpu"): per side, per op its times, and pass totals
    times = {c: {s: {i: [] for i in range(len(ops))} for s in sides} for c in CLOCKS}
    passes = {c: {s: [] for s in sides} for c in CLOCKS}
    mismatches = 0

    def check(s, op, code, digest, tag=""):
        """Counts and prints a run whose exit code or sha256 differs from
        the op's reference."""
        nonlocal mismatches
        want = ref[" ".join(op)]
        if code != want["exit"] or digest != want["sha256"]:
            mismatches += 1
            print(f"mismatch {s}{tag}: {' '.join(op)}: exit {code}")

    tmp = tempfile.mkdtemp(prefix="ab_compare-")
    out = os.path.join(tmp, "op.json")
    try:
        for k in range(args.n):
            order = list(range(len(ops)))
            rng.shuffle(order)
            total = {c: dict.fromkeys(sides, 0.0) for c in CLOCKS}
            for i in order:
                for s in ("A", "B") if k % 2 == 0 else ("B", "A"):
                    *spent, code, digest = run_op(sides[s], ops[i], out)
                    check(s, ops[i], code, digest)
                    for c, t in zip(CLOCKS, spent):
                        times[c][s][i].append(t)
                        total[c][s] += t
            for c in CLOCKS:
                for s in sides:
                    passes[c][s].append(total[c][s])
            wall = total["wall"]
            print(f"pass {k + 1}/{args.n}: A {wall['A']:.4f} s  B {wall['B']:.4f} s",
                  flush=True)
        work = {}
        for s in sides:
            work[s], results = count_work(sides[s], ops, out)
            for op, (code, digest) in zip(ops, results):
                check(s, op, code, digest, " (counted pass)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'A min s':>10} {'B min s':>10} {'B/A':>7} "
          f"{'A cpu s':>10} {'B cpu s':>10} {'B/A':>7}  op")
    for i, op in enumerate(ops):
        cols = []
        for c in CLOCKS:
            a, b = min(times[c]["A"][i]), min(times[c]["B"][i])
            cols.append(f"{a:10.4f} {b:10.4f} {b / a if a else float('nan'):7.3f}")
        print(f"{' '.join(cols)}  {' '.join(op)}")
    for c, label in zip(CLOCKS, ("pass_s", "cpu pass_s")):
        pa, pb = passes[c]["A"], passes[c]["B"]
        ma, mb = statistics.median(pa), statistics.median(pb)
        won = sum(b < a for a, b in zip(pa, pb))
        print(f"{label} median: A {ma:.4f} s  B {mb:.4f} s  B/A {mb / ma:.3f}  "
              f"B faster in {won} of {args.n} passes")
    for s in sides:
        print(f"work {s} (one pass): " + "  ".join(f"{w} {work[s][w]}" for w in WORK))
    print(f"reference mismatches: {mismatches}")
    return 2 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
