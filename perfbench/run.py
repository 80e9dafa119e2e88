#!/usr/bin/env python3
"""Benchmark of the bvbfv CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bvbfv checkout.  The workload's ops (workloads.py)
run in this single-threaded process through
`bvbfv.cli.main([... "--format", "structured", "--out", FILE])`, in an order
shuffled per pass by the seed.  Passes repeat while the next one is expected
to end within S seconds, which also cover the set-up samples and the
workload's probes; there is always at least one pass.  Every op's exit code
and the sha256 of its structured bytes are checked against reference.json.

--trace 0 prints the end-to-end metrics; their times are scaled by the host
speed that yardstick.py measures while the ops run.  --trace 1 prints the
per-layer metrics of a separate traced run (spans.py).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics, which holds exactly the metrics BENCHMARK.json lists.  Spans and op
outputs go to .bench_out/ in the checkout.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from workloads import WORKLOADS, op_id
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 11


def import_cli():
    """bvbfv.cli from the checkout's sources, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bvbfv", "cli.py")):
        sys.exit(f"error: no bvbfv sources under {src}")
    sys.path.insert(0, src)
    from bvbfv import cli
    if not cli.__file__.startswith(src):
        sys.exit(f"error: bvbfv imported from {cli.__file__}, not {src}")
    return cli


def setup(workload):
    """Everything before the first timed op: import bvbfv from the
    checkout, and load the op list and the references."""
    cli = import_cli()
    ops, largest, probes = WORKLOADS[workload]
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    for argv in ops:
        if op_id(argv) not in ref:
            sys.exit(f"error: no reference for op {op_id(argv)!r}")
        for path in argv:
            if path.startswith("corpus/") and not os.path.isfile(os.path.join(ROOT, path)):
                sys.exit(f"error: missing input {path}")
    return cli, ops, largest, probes, ref


def run_op(cli, argv, yardstick=None):
    """One CLI call; returns (start, wall s, cpu s, exit code or exception
    name, sha256 of the structured report or None).  The yardstick's
    samples taken during the call are not counted in its times."""
    out = os.path.join(OUT_DIR, "op.json")
    if os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    p0, pc0 = (yardstick.paused, yardstick.paused_cpu) if yardstick else (0.0, 0.0)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([*argv, "--format", "structured", "--out", out])
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crash is the op's result, recorded by name
        code = type(e).__name__
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if yardstick:
        wall -= yardstick.paused - p0
        cpu -= yardstick.paused_cpu - pc0
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return t0, wall, cpu, code, digest


def percentile_line(name, unit, values):
    """Median, the highest percentile with at least 10 samples beyond it,
    and the sample count."""
    n = len(values)
    med = statistics.median(values)
    p = math.floor(100 - 1000 / n) if n > 20 else None
    if p is not None and p > 50:
        rank = sorted(values)[math.ceil(p / 100 * n) - 1]
        tail = f"p{p} {rank:.6g} {unit}"
    else:
        tail = "no percentile above the median has 10 samples beyond it"
    return f"{name}: median {med:.6g} {unit}, {tail}, n={n}"


class Pass(NamedTuple):
    ops: dict        # op id -> (start, wall s, cpu s)
    traced: bool
    elapsed: float   # wall time of the pass with the benchmark's own work

    @property
    def wall(self):
        return sum(w for _, w, _ in self.ops.values())


class Bench:
    def __init__(self, workload, seed):
        self.cli, self.ops, self.largest, self.probes, self.ref = setup(workload)
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatched = set()   # ids of timed ops that ever differed
        self.passes = []

    def check(self, argv, code, digest):
        self.attempted += 1
        ref = self.ref[op_id(argv)]
        if code != ref["exit"] or digest != ref["sha256"]:
            self.failed += 1
            self.mismatched.add(op_id(argv))
            print(f"MISMATCH {op_id(argv)}: exit {code}, expected {ref['exit']}",
                  file=sys.stderr)

    def run_probes(self, tracer=None):
        """Run each probe once; returns the [op id, result] of those that
        crashed or exited 1."""
        failed = []
        for argv in self.probes:
            if tracer:
                tracer.start_op("probe:" + op_id(argv))
                tracer.install()
            try:
                code = run_op(self.cli, argv)[3]
            finally:
                if tracer:
                    tracer.uninstall()
            if code not in (0, 2):
                failed.append([op_id(argv), code])
        return failed

    def one_pass(self, tracer=None, yardstick=None):
        order = list(self.ops)
        self.rng.shuffle(order)
        gc.collect()
        tag = f"p{len(self.passes)}:"
        ops = {}
        t0 = time.perf_counter()
        for argv in order:
            if tracer:
                tracer.start_op(tag + op_id(argv))
            start, wall, cpu, code, digest = run_op(self.cli, argv, yardstick)
            ops[op_id(argv)] = (start, wall, cpu)
            self.check(argv, code, digest)
        self.passes.append(Pass(ops, tracer is not None, time.perf_counter() - t0))

    def expected(self, traced):
        """Expected wall time of another pass of this kind: the median of
        the past ones, 0 before the first."""
        past = [p.elapsed for p in self.passes if p.traced == traced]
        return statistics.median(past) if past else 0.0


def pin_to_current_cpu():
    """Keep this process, and the children it starts, on the CPU it runs
    on, so the yardstick measures the CPU the ops run on: the host's
    CPUs differ in speed by up to 2x at the same moment."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def in_child(workload, role):
    """Run the `--child ROLE` part of this script in a fresh interpreter,
    which inherits the CPU pinning; returns the start, the seconds until it
    printed its first line, and that line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--child", role]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        sys.exit(f"error: the {role} child exited {proc.returncode}")
    return t0, seconds, line


def setup_seconds(workload, yardstick):
    """(start, wall seconds) from starting a fresh interpreter until it is
    ready for the first op, once per each of SETUP_PROBES interpreters.  A
    yardstick sample is taken before and after each interpreter, not during
    it, so that the sample does not compete with it for the CPU."""
    samples = []
    for _ in range(SETUP_PROBES):
        yardstick.sample()
        t0, seconds, line = in_child(workload, "setup")
        if line.strip() != "ready":
            sys.exit("error: setup probe failed")
        samples.append((t0, seconds))
    yardstick.sample()
    return samples


def scaled(yardstick, start, seconds):
    """Seconds of an op that started at `start`, scaled to the yardstick."""
    return seconds * yardstick.scale(start, start + seconds)


def scaled_wall(yardstick, p):
    return sum(scaled(yardstick, t, w) for t, w, _ in p.ops.values())


def end_to_end(bench, setup_samples, probes_failed, deadline, yardstick):
    with yardstick:
        while True:
            bench.one_pass(yardstick=yardstick)
            if time.perf_counter() + bench.expected(False) > deadline:
                break

    largest = op_id(bench.largest)
    timings = {  # name: (unscaled samples, reported samples)
        "setup_s": ([s for _, s in setup_samples],
                    [scaled(yardstick, t, s) for t, s in setup_samples]),
        "pass_s": ([p.wall for p in bench.passes],
                   [scaled_wall(yardstick, p) for p in bench.passes]),
        "max_op_s": ([p.ops[largest][1] for p in bench.passes],
                     [scaled(yardstick, *p.ops[largest][:2]) for p in bench.passes]),
        "cpu_s": ([sum(c for _, _, c in p.ops.values()) for p in bench.passes],
                  [sum(scaled(yardstick, t, c) for t, _, c in p.ops.values())
                   for p in bench.passes]),
    }
    print(percentile_line("yardstick sample", "s", yardstick.samples))
    metrics = {}
    for name, (raw, values) in timings.items():
        print(percentile_line(name, "s", values)
              + f"; unscaled median {statistics.median(raw):.6g} s")
        metrics[name] = (statistics.median(values), "s")
    n_ops = len(bench.ops) + len(bench.probes)
    ok = (n_ops - len(bench.mismatched) - len(probes_failed)) / n_ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb: {rss_mb:.6g} MB")
    print(f"ok_ops: {ok:.6g} of {n_ops} distinct ops ({len(bench.probes)} probes); "
          f"failed attempts: {bench.failed + len(probes_failed)} of "
          f"{bench.attempted + len(bench.probes)}")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["ok_ops"] = (ok, "share")
    return metrics


def per_layer(bench, workload, seed, tracer, deadline, yardstick):
    from spans import ENTRY_POINTS, layer_totals, span_name
    # Alternate untraced and traced passes; the difference of their scaled
    # medians is the tracing overhead.  Counts come from the first traced
    # pass and must repeat exactly in every later one.  Span times include
    # the yardstick samples taken inside them, about 1%.
    traced_ops, counts = set(), None
    while True:
        with yardstick:
            bench.one_pass(yardstick=yardstick)
            tracer.install()
            cells0, rep0 = tracer.echelon_cells, tracer.echelon_repeats
            n0 = len(tracer.spans)
            try:
                bench.one_pass(tracer, yardstick)
            finally:
                tracer.uninstall()
        new = tracer.spans[n0:]
        totals = layer_totals(tracer.spans, {s[4] for s in new})
        pass_counts = {
            "calls": {k: v[0] for k, v in totals.items()},
            "cells": tracer.echelon_cells - cells0,
            "repeats": tracer.echelon_repeats - rep0,
            "rm_ops": len({s[4] for s in new if s[0] == "moduli.ReducedModel"}),
        }
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            sys.exit("error: traced counts differ between passes of one run")
        traced_ops |= {s[4] for s in new}
        if time.perf_counter() + bench.expected(False) + bench.expected(True) > deadline:
            break
    totals = layer_totals(tracer.spans, traced_ops)
    n = sum(p.traced for p in bench.passes)
    # ops in which an exception left a gluing entry point: each probe once,
    # the timed ops per pass
    raised = {s[4] for s in tracer.spans if s[5] and s[0].startswith("gluing.")}
    probe_ops = {op for op in raised if op.startswith("probe:")}
    glue_errors = len(probe_ops) + len(raised & traced_ops) / n
    metrics = {}
    layer_self = {}
    for module, path in ENTRY_POINTS:
        name = span_name(module, path)
        _, s, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (counts["calls"].get(name, 0), "count")
        metrics[f"{name}.s"] = (s / n, "s")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
        layer_self[module] = layer_self.get(module, 0.0) + self_s / n
    for module, self_s in layer_self.items():
        metrics[f"{module}.self_s"] = (self_s, "s")
    echelon_calls = counts["calls"].get("linalg._echelon", 0)
    rm_calls = counts["calls"].get("moduli.ReducedModel", 0)
    metrics["linalg._echelon.cells"] = (counts["cells"], "count")
    metrics["linalg._echelon.repeat_ratio"] = (
        counts["repeats"] / echelon_calls if echelon_calls else 0.0, "share")
    metrics["moduli.ReducedModel.per_op"] = (
        rm_calls / counts["rm_ops"] if counts["rm_ops"] else 0.0, "count/op")
    metrics["gluing.errors"] = (glue_errors, "count")
    untraced = statistics.median(scaled_wall(yardstick, p) for p in bench.passes if not p.traced)
    traced = statistics.median(scaled_wall(yardstick, p) for p in bench.passes if p.traced)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    print(f"tracing overhead: {traced - untraced:.6g} s per pass "
          f"({traced:.6g} traced vs {untraced:.6g} untraced, {n} traced passes)")
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    print("all per-layer metrics: " + json.dumps(
        {k: v for k, (v, _) in sorted(metrics.items())}, sort_keys=True))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "probes"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not os.path.isfile(REFERENCE) or not os.path.isdir(os.path.join(ROOT, "corpus")):
        sys.exit("error: run from a bvbfv checkout with corpus/ and perfbench/reference.json")
    if args.child == "setup":
        setup(args.workload)
        print("ready", flush=True)
        return
    os.makedirs(OUT_DIR, exist_ok=True)
    os.chdir(ROOT)
    if args.child == "probes":
        print(json.dumps(Bench(args.workload, args.seed).run_probes()))
        return
    pin_to_current_cpu()
    bench = Bench(args.workload, args.seed)
    yardstick = Yardstick()
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        probes_failed = bench.run_probes(tracer)
    else:
        # The probes run in a child so that their memory stays out of
        # peak_rss_mb.
        setup_samples = setup_seconds(args.workload, yardstick)
        probes_failed = json.loads(in_child(args.workload, "probes")[2]) if bench.probes else []
    for op, code in probes_failed:
        print(f"probe failed: {op}: {code}")
    if args.trace:
        metrics = per_layer(bench, args.workload, args.seed, tracer, deadline, yardstick)
    else:
        metrics = end_to_end(bench, setup_samples, probes_failed, deadline, yardstick)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    print(json.dumps({
        "correct": not bench.mismatched,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in listed},
    }))


if __name__ == "__main__":
    main()
