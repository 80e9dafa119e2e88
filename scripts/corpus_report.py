#!/usr/bin/env python3
"""Sweep the corpus: build every (theory, complex) pair that makes sense,
run the master-equation checks and the full reduction report, and print a
dimension/verdict table.  Then glue bf and cs along every corpus gluing
spec and print the gluing verdicts.

Usage:  python3 scripts/corpus_report.py [--quick]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bvbfv import corpus  # noqa: E402
from bvbfv.gluing import (  # noqa: E402
    Gluing,
    GluingSpec,
    fiber_product_check,
    glue,
    glue_moduli,
    mayer_vietoris,
)
from bvbfv.moduli import ReducedModel, moduli_report  # noqa: E402
from bvbfv.simplicial import load_complex  # noqa: E402
from bvbfv.theories import (  # noqa: E402
    build_abelian_bf,
    build_abelian_cs,
    build_electrodynamics,
    build_scalar,
    verify_cme,
)


def pairs(quick=False):
    out = []
    for name, build in corpus.BUILDERS.items():
        cx = build()
        out.append((f"bf/{name}", build_abelian_bf(cx, max(cx.dimension, 1))))
        if cx.dimension <= 3:
            out.append((f"cs/{name}", build_abelian_cs(cx)))
        if cx.dimension >= 1 and not quick:
            out.append((f"scalar/{name}", build_scalar(cx)))
        if cx.dimension >= 2 and not quick:
            out.append((f"ed/{name}", build_electrodynamics(cx)))
    return out


CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def gluing_specs():
    """(name, GluingSpec) of every corpus gluing spec file."""
    for name in sorted(os.listdir(CORPUS)):
        if name.startswith("glue_") and name.endswith(".json"):
            with open(os.path.join(CORPUS, name)) as fh:
                data = json.load(fh)
            left, right = (load_complex(os.path.join(CORPUS, data[side]))
                           for side in ("left", "right"))
            yield name[:-5], GluingSpec(left, right, [tuple(p) for p in data["interface_map"]])


def fmt_dims(d):
    return "(" + ",".join(str(d.get(g, 0)) for g in sorted(d, reverse=True)) + ")"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="cup-model theories only")
    args = ap.parse_args()
    header = f"{'theory/complex':26s} {'cme':4s} {'moduli':14s} {'les':4s} {'lefschetz':10s} {'L lagr':7s} {'vacua':10s} {'time':>6s}"
    print(header)
    print("-" * len(header))
    for label, t in pairs(args.quick):
        t0 = time.time()
        cme = verify_cme(t).ok
        rep = moduli_report(ReducedModel(t))
        lf = all(rep["lefschetz"].values())
        row = (
            f"{label:26s} {'ok' if cme else 'FAIL':4s} "
            f"{fmt_dims(rep['moduli_dims']):14s} "
            f"{'ok' if rep['les_exact'] else 'FAIL':4s} "
            f"{'ok' if lf else 'partial':10s} "
            f"{'yes' if rep['evolution_relation']['lagrangian'] else 'no':7s} "
            f"{fmt_dims(rep['vacua_core_dims']):10s} "
            f"{time.time() - t0:5.2f}s"
        )
        print(row)
    print()
    header = f"{'theory/gluing':42s} {'fiber':6s} {'intrinsic=direct':17s} {'iso':4s} {'mv abs':7s} {'mv part':7s} {'time':>6s}"
    print(header)
    print("-" * len(header))
    for name, spec in gluing_specs():
        for theory, build in (("bf", build_abelian_bf), ("cs", build_abelian_cs)):
            t0 = time.time()
            gl = Gluing(spec, *(ReducedModel(build(cx))
                                for cx in (glue(spec), spec.left, spec.right)))
            fp = fiber_product_check(gl)["match"]
            gm = glue_moduli(gl)
            mv = mayer_vietoris(gl)
            dims = fmt_dims(gm["direct_dims"]) if gm["dims_match"] else \
                f"{fmt_dims(gm['intrinsic_dims'])}!={fmt_dims(gm['direct_dims'])}"
            row = (
                f"{theory + '/' + name:42s} {'ok' if fp else 'FAIL':6s} {dims:17s} "
                f"{'ok' if gm['isomorphism'] else 'FAIL':4s} "
                f"{'ok' if mv['absolute'].exact else 'FAIL':7s} "
                f"{'ok' if mv['partially_reduced'].exact else 'FAIL':7s} "
                f"{time.time() - t0:5.2f}s"
            )
            print(row)


if __name__ == "__main__":
    main()
