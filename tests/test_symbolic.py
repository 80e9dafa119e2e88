from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvbfv.symbolic import (
    BUILTIN_TARGETS,
    DegreeInconsistency,
    DegreeZeroForm,
    GradedAlgebra,
    GradedVar,
    LieData,
    NotInvariantMetric,
    SymbolicError,
    TargetSpec,
    builtin_target,
    cs_target,
    gl2,
    jacobi_check,
    kirillov_kostant,
    psm_target,
    so3,
    target_from_dict,
)


def alg_eo():
    # two even, two odd variables
    return GradedAlgebra(
        [GradedVar("u", 0), GradedVar("v", 2), GradedVar("a", 1), GradedVar("b", 1)]
    )


# --- normal form ----------------------------------------------------------------


def test_odd_square_is_zero():
    alg = alg_eo()
    a = alg.generator("a")
    assert alg.mul(a, a) == {}


def test_odd_anticommute():
    alg = alg_eo()
    a, b = alg.generator("a"), alg.generator("b")
    assert alg.add(alg.mul(a, b), alg.mul(b, a)) == {}


def test_even_odd_square_expansion():
    # (x + y)^2 = x^2 + 2xy for even x, odd y
    alg = alg_eo()
    x, y = alg.generator("u"), alg.generator("a")
    s = alg.add(x, y)
    sq = alg.mul(s, s)
    expect = alg.add(alg.mul(x, x), alg.scale(alg.mul(x, y), 2))
    assert sq == expect


def test_graded_commutativity_randomized():
    import random

    alg = alg_eo()
    rng = random.Random(9)
    gens = [alg.generator(n) for n in ("u", "v", "a", "b")]
    for _ in range(30):
        def rand_poly():
            p = {}
            for _ in range(rng.randrange(1, 4)):
                mono = tuple(sorted(rng.choices(range(4), k=rng.randrange(0, 4))))
                sign, m = alg.normalize_monomial(mono)
                if sign:
                    p[m] = p.get(m, Fraction(0)) + rng.randrange(-3, 4)
            return {m: v for m, v in p.items() if v}
        p, q = rand_poly(), rand_poly()
        if not (alg.is_homogeneous(p) and alg.is_homogeneous(q)) or not p or not q:
            continue
        dp, dq = alg.degree(p), alg.degree(q)
        lhs = alg.mul(p, q)
        rhs = alg.scale(alg.mul(q, p), (-1) ** (dp * dq))
        assert lhs == rhs


# --- brackets --------------------------------------------------------------------


def test_bracket_of_coordinates_is_omega():
    t = builtin_target("bf_gl2_n4")
    alg = t.algebra
    w = t.bracket_matrix()
    for a in range(t.n_base):
        for b in range(t.n_base):
            br = t.poisson_bracket(
                alg.generator(t.base_vars[a].name), alg.generator(t.base_vars[b].name)
            )
            expect = {(): w[a][b]} if w[a][b] else {}
            assert br == expect


def test_bracket_with_constant_is_zero():
    t = builtin_target("cs_so3")
    one = t.algebra.one()
    assert t.poisson_bracket(one, t.theta) == {}
    assert t.poisson_bracket(t.theta, one) == {}


def test_cs_hamiltonian_is_chevalley_eilenberg():
    t = builtin_target("cs_so3")
    q = t.hamiltonian_vf()
    alg = t.algebra
    # Q x^c = 1/2 eps_{abc} x^a x^b, i.e. cyclic products
    expect = {
        "x0": alg.poly({(1, 2): 1}),
        "x1": alg.poly({(0, 2): -1}),
        "x2": alg.poly({(0, 1): 1}),
    }
    for name, val in expect.items():
        assert q.apply(alg.generator(name)) == val


def test_graded_leibniz_of_bracket():
    t = builtin_target("bf_gl2_n4")
    alg = t.algebra
    import random

    rng = random.Random(4)
    gens = [alg.generator(v.name) for v in t.base_vars]

    def rand_homog():
        k = rng.randrange(1, 3)
        p = alg.one()
        for _ in range(k):
            p = alg.mul(p, gens[rng.randrange(len(gens))])
        return alg.scale(p, rng.randrange(1, 4))

    for _ in range(20):
        f, g, h = rand_homog(), rand_homog(), rand_homog()
        if not (f and g and h):
            continue
        fd = alg.degree(f) - t.m  # shifted degree of the bracket argument
        lhs = t.poisson_bracket(f, alg.mul(g, h))
        rhs = alg.add(
            alg.mul(t.poisson_bracket(f, g), h),
            alg.scale(alg.mul(g, t.poisson_bracket(f, h)),
                      (-1) ** (fd * alg.degree(g))),
        )
        assert lhs == rhs


def test_graded_jacobi_of_bracket():
    t = builtin_target("example5_so3")
    alg = t.algebra
    import random

    rng = random.Random(12)
    gens = [alg.generator(v.name) for v in t.base_vars]

    def rand_homog():
        k = rng.randrange(1, 3)
        p = alg.one()
        for _ in range(k):
            p = alg.mul(p, gens[rng.randrange(len(gens))])
        return p

    for _ in range(20):
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
        assert lhs == rhs


# --- targets ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_TARGETS)
def test_builtin_targets_pass_all_checks(name):
    s = builtin_target(name).summary()
    assert s["master_ok"]
    assert s["q_squared_ok"]
    assert s["primitive_ok"]
    assert s["hamiltonian_ok"]
    assert s["reconstruction_ok"]


def test_bf_target_primitive_matches_p_dx_up_to_exact():
    # the Euler-homogeneous primitive differs from sum p_a dx^a by the exact
    # term -(1/3) d(sum x^a p_a); both are primitives of omega
    t = builtin_target("bf_gl2_n4")
    roy = t.euler_and_roytenberg()
    alg = t.algebra
    p_dx = {}
    xp = {}
    for a in range(4):
        p_dx = alg.add(
            p_dx, alg.mul(alg.generator(f"p{a}"), alg.generator(f"dx{a}"))
        )
        xp = alg.add(xp, alg.mul(alg.generator(f"x{a}"), alg.generator(f"p{a}")))
    diff = alg.add(roy["theta_primitive"], alg.scale(p_dx, -1))
    exact = alg.scale(t.de_rham().apply(xp), Fraction(-1, 3))
    assert diff == exact
    assert roy["primitive_ok"]


def test_degree_zero_form_refused():
    vars_ = [GradedVar("q", 0), GradedVar("pp", 0)]
    t = TargetSpec(vars_, [[0, 1], [-1, 0]], 0, {})
    with pytest.raises(DegreeZeroForm):
        t.euler_and_roytenberg()


def test_theta_degree_checked():
    vars_ = [GradedVar("x", 1)]
    with pytest.raises(DegreeInconsistency):
        TargetSpec(vars_, [[1]], 2, {(0,): Fraction(1)})


def test_degenerate_omega_rejected():
    vars_ = [GradedVar("x", 1), GradedVar("y", 1)]
    with pytest.raises(DegreeInconsistency, match="^omega matrix is degenerate$"):
        TargetSpec(vars_, [[1, 0], [0, 0]], 2, {})


@pytest.mark.parametrize("name", BUILTIN_TARGETS)
def test_omega_is_eliminated_once_for_validation_and_bracket(name, monkeypatch):
    # the inverse that the bracket reads is the one elimination that finds
    # omega nondegenerate; it is omega's unique inverse
    import json
    import os

    from bvbfv import linalg
    from bvbfv.symbolic import _inverse

    here = os.path.join(os.path.dirname(__file__), "..", "corpus", "targets")
    with open(os.path.join(here, f"{name}.json")) as fh:
        data = json.load(fh)
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a, **k: calls.append(1) or echelon(*a, **k))
    t = target_from_dict(data)
    w = t.bracket_matrix()
    assert len(calls) == 1
    n = t.n_base
    omega = linalg.RatMatrix.from_rows(t.omega, n)
    assert linalg.RatMatrix.from_rows(w, n) * omega == linalg.RatMatrix.identity(n)
    assert w == _inverse(t.omega)


def test_master_fails_for_nonjacobi_bivector():
    bad = {(0, 1): {(): Fraction(1)}, (1, 2): {(1,): Fraction(1)}}
    t = psm_target(bad, 3)
    out = t.check_master()
    assert not out["ok"]


# --- Lie data ----------------------------------------------------------------------


def test_so3_valid_and_gl2_valid():
    so3()
    gl2()


def test_jacobi_violation_detected():
    bad = [[{}, {0: Fraction(1)}], [{0: Fraction(-1)}, {}]]
    # [e0, e1] = e0 is solvable (2-dim affine algebra) so this passes Jacobi;
    # break antisymmetry instead
    worse = [[{}, {0: Fraction(1)}], [{0: Fraction(1)}, {}]]
    with pytest.raises(SymbolicError):
        LieData(worse)


def test_metric_invariance_checked():
    # so(3) constants with a non-invariant metric
    data = so3()
    bad_metric = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    with pytest.raises(NotInvariantMetric):
        LieData(data.f, bad_metric)


def test_cs_target_needs_metric():
    with pytest.raises(NotInvariantMetric):
        cs_target(gl2())


# --- Jacobiator equivalence ----------------------------------------------------------


def test_jacobi_check_constant_bivector():
    const = {(0, 1): {(): Fraction(1)}}
    out = jacobi_check(const, 3)
    assert out["jacobiator_zero"] and out["master_zero"] and out["agree"]


def test_jacobi_check_kirillov_kostant():
    out = jacobi_check(kirillov_kostant(so3()), 3)
    assert out["jacobiator_zero"] and out["master_zero"] and out["agree"]


def test_jacobi_check_documented_non_poisson():
    # {x0,x1} = 1, {x1,x2} = x1: the Jacobiator has the constant entry 1
    bad = {(0, 1): {(): Fraction(1)}, (1, 2): {(1,): Fraction(1)}}
    out = jacobi_check(bad, 3)
    assert not out["jacobiator_zero"] and not out["master_zero"] and out["agree"]


def test_jacobi_check_quadratic_poisson():
    # pi^{01} = x2^2 on R^3: only one nonzero entry, trivially Poisson
    quad = {(0, 1): {(2, 2): Fraction(1)}}
    out = jacobi_check(quad, 3)
    assert out["jacobiator_zero"] and out["master_zero"]


# --- serialization --------------------------------------------------------------------


def test_target_roundtrip_through_dict():
    import json
    import os

    here = os.path.join(os.path.dirname(__file__), "..", "corpus", "targets")
    for name in BUILTIN_TARGETS:
        with open(os.path.join(here, f"{name}.json")) as fh:
            data = json.load(fh)
        t = target_from_dict(data)
        assert t.check_master()["ok"]


# --- hypothesis: exhaustive monomial triples up to degree 4 ----------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_associativity_of_product(i1, i2, i3, j1, j2, j3):
    alg = alg_eo()
    p = alg.poly({(i1, i2): 1})
    q = alg.poly({(i3, j1): 1})
    r = alg.poly({(j2, j3): 1})
    assert alg.mul(alg.mul(p, q), r) == alg.mul(p, alg.mul(q, r))
