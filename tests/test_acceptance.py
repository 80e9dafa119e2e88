"""Acceptance suite: every exit criterion at its stated tolerance (exact
equality throughout) with one printed pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import pytest

from bvbfv import corpus
from bvbfv.gluing import Gluing, GluingSpec, glue, glue_moduli, mayer_vietoris
from bvbfv.linalg import (
    PairingForm,
    RatMatrix,
    Subspace,
)
from bvbfv.moduli import (
    ReducedModel,
    ed_formula_check,
    evolution_relation,
    lefschetz,
    moduli_report,
    regularity,
    tangent_les,
    vacua,
)
from bvbfv.symbolic import (
    BUILTIN_TARGETS,
    builtin_target,
    jacobi_check,
    kirillov_kostant,
    so3,
)
from bvbfv.theories import (
    build_abelian_bf,
    build_abelian_cs,
    build_electrodynamics,
    build_scalar,
    verify_cme,
)
from reference import (
    boundary_evaluate,
    classify_subspace,
    cup,
    evaluate,
    les_of_pair,
    presymplectic_reduce,
)
from vectors import basis, matvec, pair_value, span_of


def report(criterion, passed, elapsed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"\n[{state}] {criterion} ({elapsed:.2f}s) {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_master_equation_abelian_bf():
    """Modified CME and the gauge-variation identity, exactly zero residual,
    boundary blocks included, on the interval, the 12-triangle cylinder and
    the disk."""
    ok = True
    detail = []
    total0 = time.time()
    for name, cx in (("interval", corpus.interval()),
                     ("cylinder", corpus.cylinder(3, 2)),
                     ("disk", corpus.disk())):
        t0 = time.time()
        t = build_abelian_bf(cx)
        rep = verify_cme(t)
        dt = time.time() - t0
        this = rep.ok and dt < 1.0
        if name == "cylinder":
            assert cx.n_faces(2) == 12
            this = this and not (t.pi.transpose() * t.alpha_bdry * t.pi).is_zero()
        ok = ok and this
        detail.append(f"{name}:{'ok' if this else rep.failing()} {dt:.2f}s")
    report("1 modified CME + L_Q omega + gauge variation (abelian BF)",
           ok, time.time() - total0, "; ".join(detail))


def test_criterion_2_cs_solid_torus():
    """Solid-torus Chern-Simons: moduli dims, boundary dims, Lagrangian
    evolution relation, trivial vacua, exact LES equal to the LES of the
    pair."""
    t0 = time.time()
    st = corpus.solid_torus()
    assert st.n_faces(3) <= 100
    t = build_abelian_cs(st)
    model = ReducedModel(t)
    rep = moduli_report(model)
    checks = {
        "moduli": rep["moduli_dims"] == {1: 1, 0: 1, -1: 0, -2: 0},
        "boundary": rep["boundary_moduli_dims"] == {1: 1, 0: 2, -1: 1},
        "lagrangian": rep["evolution_relation"]["lagrangian"],
        "vacua": all(d == 0 for d in rep["vacua_dims"].values()),
        "les_exact": rep["les_exact"],
    }
    relc, incl, restr = st.relative_complex()
    pair = les_of_pair(incl, restr)
    same = pair.exact
    for k in range(4):
        g = 1 - k
        same = same and model.chi(g) == pair.maps[3 * k]
        same = same and model.psi(g) == pair.maps[3 * k + 1]
        same = same and model.beta(g) == pair.maps[3 * k + 2]
    checks["equals_pair_les"] = same
    dt = time.time() - t0
    report("2 abelian CS on the solid torus", all(checks.values()) and dt < 5.0,
           dt, str({k: v for k, v in checks.items() if not v} or "all exact"))


def test_criterion_3_gluing_solid_tori():
    """Two solid tori glued both ways: glued moduli dims, intrinsic
    construction isomorphic to the direct one, both Mayer-Vietoris sequences
    exact everywhere."""
    t0 = time.time()
    st = corpus.solid_torus()
    grid = st.meta["grid"]

    def bv(i, s):
        return grid[(i % 3, s % 3)]

    cases = {
        "meridian->longitude": (
            st, [(bv(i, s), bv(s, i)) for i in range(3) for s in range(3)],
            {1: 1, 0: 0, -1: 0, -2: 1},
        ),
        "meridian->meridian": (
            corpus.with_reversed_orientation(st),
            [(bv(i, s), bv(i, s)) for i in range(3) for s in range(3)],
            {1: 1, 0: 1, -1: 1, -2: 1},
        ),
    }
    ok = True
    detail = []
    for label, (right, pairs, expect) in cases.items():
        spec = GluingSpec(st, right, pairs)
        cx = glue(spec)
        tl = ReducedModel(build_abelian_cs(st))
        tr = ReducedModel(build_abelian_cs(right))
        tn = ReducedModel(build_abelian_cs(cx))
        gl = Gluing(spec, tn, tl, tr)
        gm = glue_moduli(gl)
        got = {g: gm["direct_dims"].get(g, 0) for g in (1, 0, -1, -2)}
        mv = mayer_vietoris(gl)
        this = (got == expect and gm["dims_match"] and gm["isomorphism"]
                and gm["pairings_intertwined"] and mv["absolute"].exact
                and mv["partially_reduced"].exact)
        ok = ok and this
        detail.append(f"{label}: dims {tuple(got[g] for g in (1, 0, -1, -2))}")
    dt = time.time() - t0
    report("3 gluing of symplectic moduli + Mayer-Vietoris", ok and dt < 30.0,
           dt, "; ".join(detail))


LEFSCHETZ_CASES = [
    ("bf interval", lambda: build_abelian_bf(corpus.interval())),
    ("bf interval3", lambda: build_abelian_bf(corpus.interval(2))),
    ("bf circle", lambda: build_abelian_bf(corpus.circle())),
    ("bf disk", lambda: build_abelian_bf(corpus.disk())),
    ("bf disk_fan", lambda: build_abelian_bf(corpus.disk_fan())),
    ("bf sphere", lambda: build_abelian_bf(corpus.sphere())),
    ("bf cylinder", lambda: build_abelian_bf(corpus.cylinder())),
    ("bf annulus", lambda: build_abelian_bf(corpus.annulus())),
    ("bf torus", lambda: build_abelian_bf(corpus.torus())),
    ("bf solid_torus", lambda: build_abelian_bf(corpus.solid_torus())),
    ("bf T2xI", lambda: build_abelian_bf(corpus.torus_times_interval())),
    ("cs solid_torus", lambda: build_abelian_cs(corpus.solid_torus())),
    ("cs T2xI", lambda: build_abelian_cs(corpus.torus_times_interval())),
    ("scalar circle", lambda: build_scalar(corpus.circle())),
    ("ed torus", lambda: build_electrodynamics(corpus.torus())),
    ("ed sphere", lambda: build_electrodynamics(corpus.sphere())),
]


def test_criterion_4_lefschetz_duality():
    """On every corpus complex: the three pairings nondegenerate, chi
    self-adjoint, psi and beta mutually adjoint, dual chain square
    commutes."""
    t0 = time.time()
    bad = []
    for name, build in LEFSCHETZ_CASES:
        verdicts = lefschetz(ReducedModel(build()))["verdicts"]
        if not all(verdicts.values()):
            bad.append((name, {k: v for k, v in verdicts.items() if not v}))
    report("4 Lefschetz duality package on the corpus", not bad,
           time.time() - t0, str(bad or f"{len(LEFSCHETZ_CASES)} cases"))


def test_criterion_5_scalar_field():
    """Scalar field: circle vacua are the odd cotangent point, interval
    vacua trivial, massive circle has no classical solutions."""
    t0 = time.time()
    rep_circle = moduli_report(ReducedModel(build_scalar(corpus.circle())))
    rep_interval = moduli_report(ReducedModel(build_scalar(corpus.interval(2))))
    rep_massive = moduli_report(ReducedModel(build_scalar(corpus.circle(), 1)))
    checks = {
        "circle_vacua_T*[-1]R": rep_circle["vacua_core_dims"] == {0: 1, -1: 1}
        and rep_circle["vacua_dims"] == {0: 1, -1: 1},
        "interval_vacua_trivial": rep_interval["vacua_core_dims"] == {0: 0, -1: 0}
        and rep_interval["vacua_dims"][0] == 0,
        "massive_el_trivial": rep_massive["el_dims"].get(0, 0) == 0
        and rep_massive["moduli_dims"] == {0: 0, -1: 0},
    }
    dt = time.time() - t0
    report("5 scalar field vacua", all(checks.values()) and dt < 1.0, dt,
           str({k: v for k, v in checks.items() if not v} or "exact"))


def test_criterion_6_electrodynamics_regularity():
    """Closed-torus electrodynamics: the literal orthogonality identities
    hold exactly and the ghost/antifield sector dimensions match the stored
    topological formulas."""
    t0 = time.time()
    model = ReducedModel(build_electrodynamics(corpus.torus()))
    reg = regularity(model)
    fc = ed_formula_check(model)
    rep = moduli_report(model)
    checks = {
        "literal_mode": reg["mode"] == "literal",
        "orthogonality": reg["regular"],
        "sector_dims": fc["all_required_match"] and fc["A_sector"]["match"],
        "dims": rep["moduli_dims"] == {1: 1, 0: 2, -1: 2, -2: 1},
    }
    dt = time.time() - t0
    report("6 electrodynamics regularity (closed torus)",
           all(checks.values()) and dt < 5.0, dt,
           str({k: v for k, v in checks.items() if not v} or "exact"))


def test_criterion_7_symbolic_targets():
    """Master equation, Q^2 and the action reconstruction for every builtin
    target; the documented non-Poisson bivector fails both Jacobi
    computations consistently."""
    t0 = time.time()
    bad = []
    for name in BUILTIN_TARGETS:
        s = builtin_target(name).summary()
        if not (s["master_ok"] and s["q_squared_ok"] and s["reconstruction_ok"]
                and s["primitive_ok"] and s["hamiltonian_ok"]):
            bad.append(name)
    kk = jacobi_check(kirillov_kostant(so3()), 3)
    non_poisson = jacobi_check(
        {(0, 1): {(): Fraction(1)}, (1, 2): {(1,): Fraction(1)}}, 3
    )
    ok = (not bad and kk["jacobiator_zero"] and kk["master_zero"]
          and not non_poisson["jacobiator_zero"]
          and not non_poisson["master_zero"] and non_poisson["agree"])
    dt = time.time() - t0
    report("7 symbolic target certification", ok and dt < 2.0, dt,
           str(bad or f"{len(BUILTIN_TARGETS)} targets + Jacobi pair"))


def test_criterion_8_presymplectic_reduction_suite():
    """One hundred randomized degenerate pairings of dimension at most 8:
    all three reduction clauses, checked against brute-force evaluation on
    spanning sets."""
    t0 = time.time()
    rng = random.Random(515)
    failures = 0
    for run in range(100):
        n = rng.randrange(2, 9)
        m = RatMatrix(n, n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    v = rng.randrange(-2, 3)
                    m[i, j] = v
                    m[j, i] = -v
        p = PairingForm(n, n, m)
        vecs = [
            {j: Fraction(rng.randrange(-2, 3)) for j in range(n)}
            for _ in range(rng.randrange(1, n + 1))
        ]
        sub = span_of(vecs, n)
        out = presymplectic_reduce(p, sub)
        if not all(out["facts"].values()):
            failures += 1
            continue
        # brute-force isotropy of the input against the reduction transfer
        brute_iso = all(
            pair_value(p.matrix, a, b) == 0 for a in basis(sub) for b in basis(sub)
        )
        if brute_iso != classify_subspace(
            out["reduced_pairing"], out["reduced_sub"]
        )["isotropic"] and out["reduced_dim"]:
            failures += 1
    dt = time.time() - t0
    report("8 presymplectic reduction clauses (100 randomized instances)",
           failures == 0 and dt < 10.0, dt, f"failures={failures}")


def test_criterion_9_foundation_identities():
    """Cup-Leibniz, Stokes, d^2 = 0 and the graded Jacobi identity of the
    symbolic bracket: randomized exact property suites with zero failures."""
    t0 = time.time()
    rng = random.Random(77)
    failures = []
    for name in ("disk_fan", "cylinder", "torus", "solid_torus"):
        cx = corpus.BUILDERS[name]()
        n = cx.dimension
        for k in range(n):
            if not (cx.coboundary_matrix(k + 1) * cx.coboundary_matrix(k)).is_zero() \
                    if k + 1 < n else False:
                failures.append((name, "d^2", k))
        restr = cx.restriction_matrix(n - 1)
        for _ in range(5):
            b = {i: Fraction(rng.randrange(-3, 4)) for i in range(cx.n_faces(n - 1))
                 if rng.random() < 0.7}
            b = {i: v for i, v in b.items() if v}
            lhs = evaluate(cx, matvec(cx.coboundary_matrix(n - 1), b))
            rhs = boundary_evaluate(cx, matvec(restr, b))
            if lhs != rhs:
                failures.append((name, "stokes"))
        for k in range(n):
            for l in range(n - k):
                a = {i: Fraction(rng.randrange(-3, 4)) for i in range(cx.n_faces(k))
                     if rng.random() < 0.7}
                b = {i: Fraction(rng.randrange(-3, 4)) for i in range(cx.n_faces(l))
                     if rng.random() < 0.7}
                a = {i: v for i, v in a.items() if v}
                b = {i: v for i, v in b.items() if v}
                lhs = matvec(cx.coboundary_matrix(k + l), cup(cx, k, a, l, b)) \
                    if k + l < n else {}
                da = matvec(cx.coboundary_matrix(k), a)
                db = matvec(cx.coboundary_matrix(l), b)
                rhs = cup(cx, k + 1, da, l, b)
                term = cup(cx, k, a, l + 1, db)
                sign = Fraction((-1) ** k)
                rhs = {
                    i: rhs.get(i, Fraction(0)) + sign * term.get(i, Fraction(0))
                    for i in set(rhs) | set(term)
                }
                if lhs != {i: v for i, v in rhs.items() if v}:
                    failures.append((name, "leibniz", k, l))
    # graded Jacobi on a mixed-degree target
    t = builtin_target("bf_gl2_n4")
    alg = t.algebra
    gens = [alg.generator(v.name) for v in t.base_vars]
    for _ in range(25):
        def rand_homog():
            p = alg.one()
            for _ in range(rng.randrange(1, 3)):
                p = alg.mul(p, gens[rng.randrange(len(gens))])
            return p
        f, g, h = rand_homog(), rand_homog(), rand_homog()
        if not (f and g and h):
            continue
        fd = alg.degree(f) - t.m
        gd = alg.degree(g) - t.m
        lhs = t.poisson_bracket(f, t.poisson_bracket(g, h))
        rhs = alg.add(
            t.poisson_bracket(t.poisson_bracket(f, g), h),
            alg.scale(t.poisson_bracket(g, t.poisson_bracket(f, h)),
                      (-1) ** (fd * gd)),
        )
        if lhs != rhs:
            failures.append(("bracket", "jacobi"))
    report("9 foundation identities (cup-Leibniz, Stokes, d^2, Jacobi)",
           not failures, time.time() - t0, str(failures or "zero failures"))
