"""Command-line front end: ingest complexes, theory configs, gluing specs
and symbolic targets; run the verification computations; emit deterministic
machine-readable reports.

Exit codes: 0 when every verdict passes, 2 when some verdict fails, 1 on
input errors.  Structured reports are byte-identical across runs on
identical inputs (rationals are serialized as exact p/q strings and timing
is excluded from the structured format).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .complexes import GhostMismatch, shared_eliminations
from .gluing import (
    Gluing,
    GluingError,
    GluingSpec,
    fiber_product_check,
    glue,
    glue_moduli,
    mayer_vietoris,
)
from .moduli import ReducedModel, ed_formula_check, moduli_report
from .simplicial import SimplicialError, is_vertex_id, load_complex
from .symbolic import SymbolicError, target_from_dict
from .theories import (
    _KINDS,
    TheoryError,
    check_ghost_grading,
    ghost_zero_slice,
    theory_from_config,
    verify_cme,
)


class InputError(Exception):
    pass


KIND_ALIASES = {
    "bf": "abelian_bf",
    "cs": "abelian_cs",
    "ed": "electrodynamics",
}


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _resolve(path):
    if os.path.exists(path):
        return path
    corpus_dir = os.environ.get("BVBFV_CORPUS")
    if corpus_dir:
        cand = os.path.join(corpus_dir, path)
        if os.path.exists(cand):
            return cand
        cand = os.path.join(corpus_dir, path + ".json")
        if os.path.exists(cand):
            return cand
    if os.path.exists(path + ".json"):
        return path + ".json"
    raise InputError(f"no such input file: {path}")


def _load_complex(path):
    path = _resolve(path)
    try:
        return load_complex(path), path
    except (SimplicialError, json.JSONDecodeError, OSError) as e:
        raise InputError(f"{path}: {e}")


def _theory_config(args):
    spec = args.theory
    if spec is None:
        raise InputError("--theory is required")
    kind = KIND_ALIASES.get(spec, spec)
    if kind in _KINDS:
        config = {"kind": kind}
    else:
        try:
            path = _resolve(spec)
        except InputError:
            raise InputError(f"--theory {spec}: neither a theory kind nor a "
                             f"config file") from None
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (json.JSONDecodeError, OSError) as e:
            raise InputError(f"theory config: {e}")
        if not isinstance(config, dict):
            raise InputError("theory config: not a JSON object")
    if args.mass is not None:
        config["mass"] = args.mass
    if args.codim is not None:
        config["codim"] = args.codim
    return config


def _build_theory(cx, args):
    config = _theory_config(args)
    try:
        return theory_from_config(cx, config), config
    except (TheoryError, ValueError) as e:
        raise InputError(f"cannot build theory: {e}")


def render_value(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, dict):
        return {str(k): render_value(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [render_value(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    return str(v)


class RunReport:
    def __init__(self, command, inputs):
        self.data = {
            "tool": "bvbfv",
            "version": __version__,
            "command": command,
            "inputs": {os.path.basename(p): _digest(p) for p in inputs},
            "checks": {},
            "tables": {},
            "timing": None,
        }
        self._t0 = time.time()

    def check(self, name, ok):
        self.data["checks"][name] = bool(ok)

    def table(self, name, value):
        self.data["tables"][name] = render_value(value)

    @property
    def ok(self):
        return all(self.data["checks"].values())

    def finish(self):
        self.elapsed = time.time() - self._t0
        return self


def emit_report(report: RunReport, fmt="structured"):
    """Serialize a report; the structured format has stable key order and
    no timing, so identical inputs give byte-identical output."""
    if fmt == "structured":
        return (json.dumps(report.data, indent=1, sort_keys=True) + "\n").encode()
    lines = [f"bvbfv {report.data['version']} :: {report.data['command']}"]
    for name, dig in sorted(report.data["inputs"].items()):
        lines.append(f"input {name} sha256={dig[:16]}")
    lines.append("")
    for name, value in report.data["tables"].items():
        lines.append(f"[{name}]")
        if isinstance(value, dict):
            for k in sorted(value, key=str):
                lines.append(f"  {k:28s} {value[k]}")
        else:
            lines.append(f"  {value}")
    lines.append("")
    for name in sorted(report.data["checks"]):
        ok = report.data["checks"][name]
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
    lines.append("")
    lines.append(f"verdict: {'all checks passed' if report.ok else 'CHECK FAILURES'}")
    lines.append(f"elapsed: {report.elapsed:.3f}s")
    return ("\n".join(lines) + "\n").encode()


def parse_report(blob):
    return json.loads(blob.decode())


# ---------------------------------------------------------------------------
# subcommands


def cmd_complex_check(args):
    cx, path = _load_complex(args.path)
    rep = RunReport(f"complex check {os.path.basename(path)}", [path])
    cc = cx.cochain_complex()
    rep.table("face_counts", {k: cx.n_faces(k) for k in range(cx.dimension + 1)})
    rep.table("betti", cc.betti())
    rep.table("closed", cx.is_closed())
    bc = cx.boundary_complex()
    rep.table("boundary_top_faces", bc.n_faces(max(bc.dimension, 0)) if bc.n_faces(0) else 0)
    rep.check("orientation_coherent", True)  # construction would have raised
    rep.check("euler_characteristic_matches_betti",
              cc.euler_characteristic() == sum((-1) ** k * b for k, b in cc.betti().items()))
    return rep


def cmd_moduli(args):
    cx, path = _load_complex(args.path)
    t, config = _build_theory(cx, args)
    rep = RunReport(f"moduli {os.path.basename(path)} kind={t.kind}", [path])
    try:
        check_ghost_grading(t)
    except GhostMismatch as e:
        rep.check("ghost_grading", False)
        rep.table("ghost_mismatch", str(e))
        return rep
    model = ReducedModel(t)
    mr = moduli_report(model)
    for key, src in (("el", "el_dims"), ("moduli", "moduli_dims"),
                     ("moduli_symp", "moduli_symp_dims"),
                     ("boundary_moduli", "boundary_moduli_dims"),
                     ("vacua", "vacua_dims"), ("vacua_core", "vacua_core_dims")):
        rep.table(key, mr[src])
    rep.table("lefschetz", mr["lefschetz"])
    rep.table("evolution_relation", mr["evolution_relation"])
    rep.table("regularity_mode", mr["regularity"]["mode"])
    rep.check("les_exact", mr["les_exact"])
    for k, v in mr["lefschetz"].items():
        rep.check(f"lefschetz_{k}", v)
    rep.check("evolution_relation_lagrangian", mr["evolution_relation"]["lagrangian"])
    rep.check("im_chi_equals_ker_psi", mr["vacua_checks"]["im_chi_equals_ker_psi"])
    rep.check("beta_diagram_commutes", mr["beta_diagram_commutes"])
    if t.kind == "electrodynamics":
        fc = ed_formula_check(model)
        rep.table("sector_formulas", {
            k: v for k, v in fc.items() if isinstance(v, dict)
        })
        rep.check("sector_formulas_match", fc["all_required_match"])
    if mr["regularity"]["mode"] == "literal":
        rep.check("regular", mr["regularity"]["regular"])
    return rep


def cmd_cme(args):
    cx, path = _load_complex(args.path)
    t, config = _build_theory(cx, args)
    rep = RunReport(f"cme {os.path.basename(path)} kind={t.kind}", [path])
    r = verify_cme(t)
    for name, ok in sorted(r.checks.items()):
        rep.check(name, ok)
        rep.table(f"residual_nonzeros_{name}", r.residuals[name].nnz)
    try:
        gg = check_ghost_grading(t)
        rep.check("ghost_grading", True)
        rep.table("pairing_ghosts", gg)
    except GhostMismatch as e:
        rep.check("ghost_grading", False)
        rep.table("ghost_mismatch", str(e))
    return rep


def cmd_glue(args):
    try:
        with open(_resolve(args.path)) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, OSError) as e:
        raise InputError(f"gluing spec: {e}")
    if not isinstance(data, dict):
        raise InputError("gluing spec: not a JSON object")
    for key in ("left", "right", "interface_map"):
        if key not in data:
            raise InputError(f"gluing spec misses field {key!r}")
    if not (isinstance(data["left"], str) and isinstance(data["right"], str)):
        raise InputError("gluing spec: 'left' and 'right' must be paths")
    base = os.path.dirname(_resolve(args.path))
    lpath = data["left"] if os.path.isabs(data["left"]) else os.path.join(base, data["left"])
    rpath = data["right"] if os.path.isabs(data["right"]) else os.path.join(base, data["right"])
    pairs = data["interface_map"]
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(map(is_vertex_id, p)) for p in pairs):
        raise InputError("gluing spec: interface_map must be a list of "
                         "[left, right] vertex pairs")
    left, lpath = _load_complex(lpath)
    right, rpath = _load_complex(rpath)
    try:
        spec = GluingSpec(left, right, [tuple(p) for p in pairs])
        cx = glue(spec)
    except (GluingError, SimplicialError) as e:
        raise InputError(f"gluing failed: {e}")
    rep = RunReport("glue", [_resolve(args.path), lpath, rpath])
    rep.table("glued_betti", cx.cochain_complex().betti())
    t, config = _build_theory(cx, args)
    gl = Gluing(spec, ReducedModel(t), ReducedModel(theory_from_config(left, config)),
                ReducedModel(theory_from_config(right, config)))
    fp = fiber_product_check(gl)
    rep.check("el_fiber_product", fp["match"])
    gm = glue_moduli(gl)
    rep.table("intrinsic_dims", gm["intrinsic_dims"])
    rep.table("direct_dims", gm["direct_dims"])
    rep.check("glued_moduli_dims_match", gm["dims_match"])
    rep.check("glued_moduli_isomorphism", gm["isomorphism"])
    rep.check("glued_pairings_intertwined", gm["pairings_intertwined"])
    mv = mayer_vietoris(gl)
    rep.check("mayer_vietoris_absolute_exact", mv["absolute"].exact)
    rep.check("mayer_vietoris_partially_reduced_exact",
              mv["partially_reduced"].exact)
    return rep


def cmd_target_check(args):
    path = _resolve(args.path)
    try:
        with open(path) as fh:
            data = json.load(fh)
        target = target_from_dict(data)
    except (SymbolicError, json.JSONDecodeError, OSError, KeyError) as e:
        raise InputError(f"target file: {e}")
    rep = RunReport(f"target check {os.path.basename(path)}", [path])
    s = target.summary()
    rep.table("master_residual", s["master_residual"])
    rep.check("master_equation", s["master_ok"])
    rep.check("q_squared_zero", s["q_squared_ok"])
    if target.m != 0:
        rep.check("primitive_reconstruction", s["primitive_ok"])
        rep.check("hamiltonian_consistency", s["hamiltonian_ok"])
        rep.check("action_reconstruction", s["reconstruction_ok"])
    return rep


def cmd_slice_gh0(args):
    cx, path = _load_complex(args.path)
    t, config = _build_theory(cx, args)
    rep = RunReport(f"slice-gh0 {os.path.basename(path)} kind={t.kind}", [path])
    sl = ghost_zero_slice(ReducedModel(t))
    rep.table("field_dims", {f"{s}@deg{k}": d for (s, k), d in sl["field_dims"].items()})
    rep.table("el_dim", sl["el_dim"])
    rep.table("gauge_dim", sl["gauge_dim"])
    rep.table("moduli_dim", sl["moduli_dim"])
    rep.table("boundary_constraint_dim", sl["boundary_constraint_dim"])
    rep.check("slice_extracted", True)
    return rep


@functools.cache
def build_parser():
    """The argument parser, built on first use and then kept for the
    process (not at import)."""
    p = argparse.ArgumentParser(
        prog="bvbfv",
        description="Exact verification lab for linear gauge theories on "
        "simplicial complexes",
    )
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    # the output flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complex", help="complex file operations")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    chk = pcs.add_parser("check", help="validate a complex file", parents=[common])
    chk.add_argument("path")
    chk.set_defaults(func=cmd_complex_check)

    def theory_flags(q):
        q.add_argument("--theory", required=True,
                       help="theory kind or JSON config path")
        q.add_argument("--mass", default=None, help="rational mass p/q")
        q.add_argument("--codim", type=int, default=None)

    pm = sub.add_parser("moduli", help="full reduction report", parents=[common])
    pm.add_argument("path")
    theory_flags(pm)
    pm.set_defaults(func=cmd_moduli)

    pq = sub.add_parser("cme", help="master-equation verification", parents=[common])
    pq.add_argument("path")
    theory_flags(pq)
    pq.set_defaults(func=cmd_cme)

    pg = sub.add_parser("glue", help="gluing: intrinsic vs direct + Mayer-Vietoris", parents=[common])
    pg.add_argument("path", help="gluing spec JSON")
    theory_flags(pg)
    pg.set_defaults(func=cmd_glue)

    pt = sub.add_parser("target", help="symbolic target operations")
    pts = pt.add_subparsers(dest="subcommand", required=True)
    tchk = pts.add_parser("check", help="master equation, Q^2, primitives", parents=[common])
    tchk.add_argument("path")
    tchk.set_defaults(func=cmd_target_check)

    ps = sub.add_parser("slice-gh0", help="ghost-zero sector", parents=[common])
    ps.add_argument("path")
    theory_flags(ps)
    ps.set_defaults(func=cmd_slice_gh0)
    return p


def main(argv=None):
    # cached: in-process callers run many ops, and each parse is a fresh namespace
    args = build_parser().parse_args(argv)
    try:
        # one op: equal blocks are eliminated once, and nothing outlives it
        with shared_eliminations():
            report = args.func(args).finish()
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (SimplicialError, TheoryError, SymbolicError, GhostMismatch,
            GluingError) as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1
    blob = emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob.decode())
    return 0 if report.ok else 2


if __name__ == "__main__":
    sys.exit(main())
