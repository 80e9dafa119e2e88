#!/usr/bin/env python3
"""Record the exit code and structured-report sha256 of every corpus CLI op.

Usage:  python3 scripts/snapshot.py OUT.json [--against OLD.json]

The ops are `complex check` on every corpus complex, `target check` on
every corpus target, `cme`, `moduli` and `slice-gh0` for every
(theory, complex) pair that `corpus_report.pairs()` builds, `cme` and
`moduli` with `--codim 1` for bf, cs and ed on every corpus complex where
that stratum theory builds, and `glue` for all four theories and with
`--codim 1` for bf and ed (cup-model strata) on both gluing specs.  Each runs in this process through `bvbfv.cli.main` with
`--format structured`.  With `--against`, the ops whose exit code or
sha256 differ from OLD.json are listed and the script exits 2.  A refactor that must not change any output is checked by
snapshotting the parent commit and the change and comparing the two.

Each op's line on stdout gives its exit code and wall time, and the last
line before the comparison gives the sweep's total wall time.  Times are
printed only; the JSON holds no timing, so snapshots stay comparable.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bvbfv import cli, corpus  # noqa: E402
from bvbfv.simplicial import load_complex  # noqa: E402
from bvbfv.theories import TheoryError, theory_from_config  # noqa: E402
from corpus_report import pairs  # noqa: E402

CORPUS = os.path.join(ROOT, "corpus")
THEORIES = ("bf", "cs", "scalar", "ed")


def ops():
    names = sorted(f[:-5] for f in os.listdir(CORPUS) if f.endswith(".json"))
    out = [["complex", "check", f"corpus/{n}.json"] for n in names
           if n != "manifest" and not n.startswith("glue_")]
    out += [["target", "check", f"corpus/targets/{f}"]
            for f in sorted(os.listdir(os.path.join(CORPUS, "targets")))]
    for label, _ in pairs():
        theory, name = label.split("/")
        for sub in ("cme", "moduli", "slice-gh0"):
            out.append([sub, f"corpus/{name}.json", "--theory", theory])
    for name in corpus.BUILDERS:
        for theory in ("bf", "cs", "ed"):
            if builds_stratum(name, theory):
                for sub in ("cme", "moduli"):
                    out.append([sub, f"corpus/{name}.json", "--theory", theory,
                                "--codim", "1"])
    for spec in sorted(n for n in names if n.startswith("glue_")):
        for theory in THEORIES:
            out.append(["glue", f"corpus/{spec}.json", "--theory", theory])
        for theory in ("bf", "ed"):
            out.append(["glue", f"corpus/{spec}.json", "--theory", theory, "--codim", "1"])
    return out


def builds_stratum(name, theory):
    cx = load_complex(os.path.join(CORPUS, f"{name}.json"))
    try:
        theory_from_config(cx, {"kind": cli.KIND_ALIASES[theory], "codim": 1})
    except TheoryError:
        return False
    return True


def run(argv, out_path):
    """Exit code (or the name of an uncaught exception), sha256 of the
    structured report or None, and the stderr lines."""
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", "structured", "--out", out_path])
    except Exception as e:  # a crash is the op's result, recorded by name
        code = type(e).__name__
    digest = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "sha256": digest, "stderr": err.getvalue().splitlines()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out", help="snapshot file to write")
    ap.add_argument("--against", help="earlier snapshot to compare with")
    args = ap.parse_args()
    os.chdir(ROOT)
    snap = {}
    total = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for argv in ops():
            op = " ".join(argv)
            t0 = time.perf_counter()
            snap[op] = run(argv, report)
            wall = time.perf_counter() - t0
            total += wall
            print(f"{snap[op]['exit']!s:>20} {wall:8.3f}s {op}", flush=True)
    print(f"sweep: {len(snap)} ops in {total:.2f}s wall", flush=True)
    with open(args.out, "w") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if not args.against:
        return 0
    with open(args.against) as fh:
        old = json.load(fh)
    differ = []
    for op in sorted(set(old) | set(snap)):
        a, b = old.get(op), snap.get(op)
        if a is None or b is None or (a["exit"], a["sha256"]) != (b["exit"], b["sha256"]):
            differ.append(op)
            print(f"DIFFERS {op}: {a and a['exit']} -> {b and b['exit']}")
            for line in (b or {}).get("stderr", [])[-1:]:
                print(f"    {line}")
    print(f"{len(differ)} of {len(snap)} ops differ")
    return 2 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
