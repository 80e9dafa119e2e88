import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvbfv import corpus
from bvbfv.linalg import (
    PairingForm,
    RatMatrix,
    Subspace,
    image_basis,
    kernel_basis,
)
from bvbfv.moduli import (
    ReducedModel,
    ed_formula_check,
    el_space,
    evolution_relation,
    lefschetz,
    moduli_report,
    q_reduce,
    regularity,
    symp_moduli,
    tangent_les,
    vacua,
)
from bvbfv.theories import (
    TheoryError,
    build_abelian_bf,
    build_abelian_cs,
    build_electrodynamics,
    build_scalar,
    theory_from_config,
    verify_cme,
)
from reference import NotLagrangian, NotTransversal, les_of_pair, vacua_via_transversal
from vectors import basis, coords_of, matvec, pair_value, sparse_rows, span_of


def cs_solid_torus():
    return build_abelian_cs(corpus.solid_torus())


# --- Chern-Simons on the solid torus ------------------------------------------


def test_cs_solid_torus_moduli_dims():
    rep = moduli_report(ReducedModel(cs_solid_torus()))
    assert rep["moduli_dims"] == {1: 1, 0: 1, -1: 0, -2: 0}
    assert rep["boundary_moduli_dims"] == {1: 1, 0: 2, -1: 1}


def test_cs_solid_torus_el_is_closed_cochains():
    t = cs_solid_torus()
    el = el_space(ReducedModel(t))
    cc = t.cx.cochain_complex()
    for g, space in el["spaces"].items():
        k = 1 - g
        if 0 <= k <= 3:
            assert space.dim == kernel_basis(cc.d(k)).dim


def test_cs_solid_torus_les_exact_and_equals_pair_les():
    t = cs_solid_torus()
    model = ReducedModel(t)
    les = tangent_les(model)
    assert les.exact
    relc, incl, restr = t.cx.relative_complex()
    pair = les_of_pair(incl, restr)
    assert pair.exact
    # identification: ghost g corresponds to form degree 1 - g
    tangent_nodes = {n: d for n, d in les.nodes}
    for k in range(4):
        g = 1 - k
        assert tangent_nodes.get(f"vert@gh{g}", 0) == relc.cohomology(k)[0]
        assert tangent_nodes.get(f"bulk@gh{g}", 0) == \
            t.cx.cochain_complex().cohomology(k)[0]
    # the map matrices agree block for block under the same identification
    pair_maps = {}
    for k in range(0, 4):
        pair_maps[("chi", k)] = pair.maps[3 * k]
        pair_maps[("psi", k)] = pair.maps[3 * k + 1]
        pair_maps[("beta", k)] = pair.maps[3 * k + 2]
    for k in range(0, 4):
        g = 1 - k
        assert model.chi(g) == pair_maps[("chi", k)]
        assert model.psi(g) == pair_maps[("psi", k)]
        # beta at boundary ghost g is the connecting map at form degree 1 - g
        assert model.beta(g) == pair_maps[("beta", k)]


def test_cs_solid_torus_pi_star_fibers_are_relative_cohomology():
    t = cs_solid_torus()
    sm = symp_moduli(ReducedModel(t))
    relc, _, _ = t.cx.relative_complex()
    for g, mat in sm["pi_star"].items():
        if not sm["reps"].get(g):
            continue
        fiber = mat.cols - mat.rank()
        assert fiber == relc.cohomology(1 - g)[0]


def test_bf_cylinder_pi_star_fibers_from_relative_cohomology():
    t = build_abelian_bf(corpus.cylinder())
    sm = symp_moduli(ReducedModel(t))
    relc, _, _ = t.cx.relative_complex()
    for g, mat in sm["pi_star"].items():
        if not sm["reps"].get(g):
            continue
        fiber = mat.cols - mat.rank()
        # sectors A (shift 1) and B (shift n-2 = 0) contribute relative
        # cohomology in degrees 1-g and -g
        expect = relc.cohomology(1 - g)[0] + relc.cohomology(-g)[0]
        assert fiber == expect



@pytest.mark.parametrize("cx", ["solid_torus", "torus_times_interval"])
@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs], ids=["bf", "cs"])
def test_pi_star_maps_reps_to_their_restrictions(build, cx):
    # pi_* is the coordinates of pi(rep) on the boundary kernel basis:
    # K pi_* reproduces pi(rep) column by column, with nothing solved here
    model = ReducedModel(build(getattr(corpus, cx)()))
    pi_star = symp_moduli(model)["pi_star"]
    for g in model.ghosts:
        images = [matvec(model.pi_blocks[g], rep) for rep in model.msymp.reps(g).columns()]
        want = RatMatrix.from_columns(images, model.bdry.dim(g))
        assert model.bdry.kernel(g).matrix() * pi_star[g] == want

def test_cs_solid_torus_lefschetz_package():
    rep = lefschetz(ReducedModel(cs_solid_torus()))
    assert all(rep["verdicts"].values())


def test_cs_solid_torus_evolution_relation():
    ev = evolution_relation(ReducedModel(cs_solid_torus()))
    assert ev["verdict"]["lagrangian"]
    assert ev["reduced_dims_total"] == 2  # full H^0 plus one line in H^1


def test_cs_solid_torus_vacua_trivial():
    v = vacua(ReducedModel(cs_solid_torus()))
    assert all(d == 0 for d in v["dims"].values())
    assert v["im_chi_equals_ker_psi"] and v["vert_form_kernel_is_ker_chi"]


def test_cs_torus_times_interval_vacua_from_les():
    # vacua = ker(H^k(N) -> H^k(dN)) for N = T^2 x I: restriction to the two
    # torus ends is injective, so the vacua vanish
    t = build_abelian_cs(corpus.torus_times_interval())
    v = vacua(ReducedModel(t))
    assert all(d == 0 for d in v["dims"].values())


def test_cs_solid_torus_transversal_lambda_agreement(monkeypatch):
    from bvbfv import complexes

    model = ReducedModel(cs_solid_torus())
    ev = evolution_relation(model)
    total = ev["pairing"].left_dim
    lred = ev["reduced_L"]
    # construct a Lagrangian complement: H^2 class plus the H^1 line not in L
    offsets = ev["offsets"]
    cand = []
    for g in model.ghosts:
        for i in range(model.bdry.h_dim(g)):
            cand.append({offsets[g] + i: Fraction(1)})
    lam_basis = []
    probe = Subspace(total, basis(lred), check=False)
    ech_dim = lred.dim
    for c in cand:
        trial = Subspace(total, lam_basis + [c], check=False)
        if trial.dim != len(lam_basis) + 1:
            continue
        if trial.intersect(lred).dim == 0:
            lam_basis.append(c)
        if len(lam_basis) == total - lred.dim:
            break
    lam = Subspace(total, lam_basis)
    # the class condition is one class_matrix per ghost times psi, with no
    # class coordinates of single vectors
    calls = []
    coords = complexes._GradedPiece.class_coords

    def recording(self, g, vec):
        calls.append(g)
        return coords(self, g, vec)

    monkeypatch.setattr(complexes._GradedPiece, "class_coords", recording)
    out = vacua_via_transversal(model, lam)
    assert out["agrees_with_vacua_dim"]
    assert out["agrees_with_vacua_pairing"]
    assert out["reduced_dim"] == 0
    assert calls == []


def test_transversal_lambda_negative():
    model = ReducedModel(cs_solid_torus())
    ev = evolution_relation(model)
    with pytest.raises(NotTransversal):
        vacua_via_transversal(model, ev["reduced_L"])
    total = ev["pairing"].left_dim
    with pytest.raises(NotLagrangian):
        vacua_via_transversal(model, Subspace.full(total))


# --- scalar -------------------------------------------------------------------


def test_scalar_circle_massless_vacua_cotangent_point():
    rep = moduli_report(ReducedModel(build_scalar(corpus.circle())))
    assert rep["moduli_dims"] == {0: 1, -1: 1}
    assert rep["vacua_dims"] == {0: 1, -1: 1}
    assert rep["vacua_core_dims"] == {0: 1, -1: 1}
    assert rep["regularity"]["mode"] == "literal" and rep["regularity"]["regular"]
    assert rep["symp_reduction_agrees"]


def test_scalar_interval_vacua_trivial_core():
    rep = moduli_report(ReducedModel(build_scalar(corpus.interval(2))))
    assert rep["les_exact"]
    assert rep["vacua_core_dims"] == {0: 0, -1: 0}
    assert rep["vacua_dims"][0] == 0
    # psi is injective on gh-0 moduli (harmonics are boundary determined)
    assert rep["vacua_checks"]["im_chi_equals_ker_psi"]


def test_scalar_interval_relative_groups_vanish():
    # the continuum fibers H^0(N, dN) + H^n(N)[-1] both vanish on the interval
    cx = corpus.interval(2)
    relc, incl, restr = cx.relative_complex()
    assert relc.cohomology(0)[0] == 0
    assert cx.cochain_complex().cohomology(1)[0] == 0


def test_scalar_massive_circle_el_trivial():
    rep = moduli_report(ReducedModel(build_scalar(corpus.circle(), 1)))
    assert rep["el_dims"].get(0, 0) == 0
    assert rep["moduli_dims"] == {0: 0, -1: 0}
    assert rep["vacua_dims"] == {0: 0, -1: 0}


def test_scalar_interval_transversal_momentum_leaf():
    t = build_scalar(corpus.circle())
    out = vacua_via_transversal(ReducedModel(t), Subspace.zero(0))
    assert out["agrees_with_vacua_dim"] and out["agrees_with_vacua_pairing"]


# --- electrodynamics -----------------------------------------------------------


def test_ed_torus_regular_and_dims():
    model = ReducedModel(build_electrodynamics(corpus.torus()))
    rep = moduli_report(model)
    assert rep["moduli_dims"] == {1: 1, 0: 2, -1: 2, -2: 1}
    assert rep["regularity"]["mode"] == "literal"
    assert rep["regularity"]["regular"]
    assert rep["les_exact"]
    fc = ed_formula_check(model)
    assert fc["all_required_match"] and fc["A_sector"]["match"]


@pytest.mark.parametrize("name", ["cylinder", "disk_fan", "annulus", "sphere"])
def test_ed_sector_formulas_on_corpus(name, ):
    t = build_electrodynamics(corpus.BUILDERS[name]())
    fc = ed_formula_check(ReducedModel(t))
    assert fc["c_sector"]["match"]
    assert fc["A_dagger_sector"]["match"]
    assert fc["c_dagger_sector"]["match"]
    if t.cx.is_closed():
        assert fc["A_sector"]["match"]
    else:
        assert fc["A_sector"]["model_dependent"]


def broken_q_torus():
    """ed on the torus with the block c+ <- A+ (the chain boundary) of Q
    dropped, which leaves Q^2 = 0."""
    t = build_electrodynamics(corpus.torus())
    bad = t.Q.copy()
    off_r = t.bulk.offset("c+", 0)
    off_c = t.bulk.offset("A+", 1)
    for (i, j) in list(bad.entries):
        if off_r <= i < off_r + t.bulk.dim("c+", 0) and \
                off_c <= j < off_c + t.bulk.dim("A+", 1):
            bad[i, j] = 0
    t.Q = bad
    return t


def test_regularity_negative_witness():
    t = broken_q_torus()
    assert (t.Q * t.Q).is_zero()
    rep = regularity(ReducedModel(t))
    assert not rep["regular"]
    assert rep["witness"] is not None


# --- generic invariants ---------------------------------------------------------


CASES = [
    lambda: build_abelian_bf(corpus.disk_fan()),
    lambda: build_abelian_bf(corpus.cylinder()),
    lambda: build_abelian_bf(corpus.torus()),
    lambda: build_abelian_bf(corpus.solid_torus()),
    lambda: build_abelian_cs(corpus.solid_torus()),
    lambda: build_abelian_cs(corpus.torus_times_interval()),
    lambda: build_scalar(corpus.interval(2)),
    lambda: build_scalar(corpus.circle()),
    lambda: build_electrodynamics(corpus.torus()),
]


THEORY_BUILDERS = {"bf": build_abelian_bf, "cs": build_abelian_cs,
                   "scalar": build_scalar, "ed": build_electrodynamics}


@pytest.mark.parametrize("theory", sorted(THEORY_BUILDERS))
@pytest.mark.parametrize("name", ["disk", "cylinder", "solid_torus"])
def test_report_invariant_under_vertex_permutation(name, theory):
    # a shuffled vertex list permutes the faces, so every basis, column order
    # and pivot choice of the elimination changes; the dimensions and
    # verdicts (failing ones included) must not
    cx = getattr(corpus, name)()
    shuffled = corpus.relabeled(cx, seed=2012)
    assert shuffled.vertex_ids != cx.vertex_ids
    build = THEORY_BUILDERS[theory]
    before = moduli_report(ReducedModel(build(cx)))
    after = moduli_report(ReducedModel(build(shuffled)))
    skip = {"les_nodes"}
    assert before.keys() == after.keys()
    for key in before.keys() - skip:
        assert after[key] == before[key], key


SUBDIVISION_CASES = [
    (theory, name)
    for name in ("interval", "circle", "disk", "disk_fan", "annulus", "sphere")
    for theory in ("bf", "cs", "scalar", "ed")
    if theory != "ed" or getattr(corpus, name)().dimension >= 2
]


@pytest.mark.parametrize("theory,name", SUBDIVISION_CASES)
def test_report_invariant_under_subdivision(theory, name):
    # the reduced spaces are cohomological, so barycentric subdivision keeps
    # them; el_dims and moduli_symp_dims count cochains and boundary fields
    # by construction and grow with the complex
    cx = getattr(corpus, name)()
    fine = corpus.subdivide(cx)
    build = THEORY_BUILDERS[theory]
    before = moduli_report(ReducedModel(build(cx)))
    after = moduli_report(ReducedModel(build(fine)))
    skip = {"el_dims", "moduli_symp_dims"}
    if theory == "scalar" and not cx.is_closed():
        # the scalar's moduli grow with the number of boundary vertices (the
        # open Lefschetz/regularity failure of the cotangent models), so
        # only its verdicts are compared
        skip |= {"moduli_dims", "boundary_moduli_dims", "les_nodes", "vacua_dims"}
        for rep in (before, after):
            del rep["evolution_relation"]["reduced_dim"]
    assert before.keys() == after.keys()
    for key in before.keys() - skip:
        assert after[key] == before[key], key
    assert verify_cme(build(fine)).summary() == verify_cme(build(cx)).summary()


@pytest.mark.parametrize("build", CASES)
def test_les_exact_everywhere(build):
    assert tangent_les(ReducedModel(build())).exact


@pytest.mark.parametrize("build", CASES[:6])
def test_lefschetz_verdicts_cup_theories(build):
    assert all(lefschetz(ReducedModel(build()))["verdicts"].values())


@pytest.mark.parametrize("build", CASES)
def test_beta_diagram_and_exact_vanishing(build):
    sm = symp_moduli(ReducedModel(build()))
    assert sm["beta_diagram_commutes"]
    assert sm["beta_vanishes_on_exact"]


@pytest.mark.parametrize("build", CASES)
def test_vacua_pairing_couples_dual_ghosts(build):
    model = ReducedModel(build())
    v = vacua(model)
    p = v["pairing"]
    offsets = v["offsets"]
    c = model.pair_ghost()
    for (i, j) in p.matrix.entries:
        gi = [g for g in offsets if offsets[g] <= i][-1]
        gj = [g for g in offsets if offsets[g] <= j][-1]
        assert gi + gj == c


def test_q_kinda_self_adjoint_for_cotangent():
    # omega(Q xi, eta) - omega(xi, Q eta) - (-1)^D omega_bdry(pi xi, pi eta)
    for build in (lambda: build_scalar(corpus.interval(2)),
                  lambda: build_scalar(corpus.circle()),
                  lambda: build_electrodynamics(corpus.torus()),
                  lambda: build_electrodynamics(corpus.cylinder())):
        assert verify_cme(build()).residuals["q_self_adjoint"].is_zero()


def test_evolution_relation_lagrangian_for_regular_theories():
    for build in (lambda: build_abelian_bf(corpus.disk_fan()),
                  lambda: build_abelian_bf(corpus.cylinder()),
                  lambda: build_abelian_cs(corpus.solid_torus()),
                  lambda: build_electrodynamics(corpus.torus())):
        t = build()
        ev = evolution_relation(ReducedModel(t))
        assert ev["verdict"]["lagrangian"]


def test_closed_complex_evolution_relation_vacuous():
    ev = evolution_relation(ReducedModel(build_abelian_bf(corpus.torus())))
    assert ev["L_dim"] == 0 and ev["verdict"]["lagrangian"]


def test_zero_differential_theory_moduli_is_everything():
    # a theory whose differential vanishes: M equals the whole field space
    t = build_scalar(corpus.two_points())
    # two isolated points: d^0 has no target, the differential blocks vanish
    assert t.Q.is_zero()
    rep = q_reduce(ReducedModel(t))
    total = sum(rep["dims"].values())
    assert total == t.bulk.total


def test_cs_t2xi_vacua_match_pair_les_oracle():
    cx = corpus.torus_times_interval()
    t = build_abelian_cs(cx)
    v = vacua(ReducedModel(t))
    relc, incl, restr = cx.relative_complex()
    pair = les_of_pair(incl, restr)
    # vacua at ghost g = ker(psi) = ker(H^k(N) -> H^k(dN)) with k = 1 - g
    for g, dim in v["dims"].items():
        k = 1 - g
        if 0 <= k <= 3:
            psi_k = pair.maps[3 * k + 1]
            from bvbfv.linalg import kernel_basis as kb

            assert dim == kb(psi_k).dim


def test_cotangent_field_level_pairing_nondegenerate():
    for build in (lambda: build_scalar(corpus.interval(2)),
                  lambda: build_scalar(corpus.circle()),
                  lambda: build_electrodynamics(corpus.torus()),
                  lambda: build_electrodynamics(corpus.cylinder())):
        t = build()
        assert t.omega.rank() == t.bulk.total


def test_cs_solid_torus_triangulation_independence():
    # the same reduced data from finer triangulations, within the stated
    # time bound for up to one hundred tetrahedra
    import time

    base = moduli_report(ReducedModel(build_abelian_cs(corpus.solid_torus(3))))
    for m in (4, 7):
        cx = corpus.solid_torus(m)
        assert cx.n_faces(3) <= 100
        t0 = time.time()
        rep = moduli_report(ReducedModel(build_abelian_cs(cx)))
        assert time.time() - t0 < 5.0
        assert rep["moduli_dims"] == base["moduli_dims"]
        assert rep["boundary_moduli_dims"] == base["boundary_moduli_dims"]
        assert rep["vacua_dims"] == base["vacua_dims"]
        assert rep["les_exact"] and all(rep["lefschetz"].values())
        assert rep["evolution_relation"] == base["evolution_relation"]


# --- factored solvers of the reduced model -------------------------------------


THEORIES = {
    "bf": build_abelian_bf,
    "cs": build_abelian_cs,
    "scalar": build_scalar,
    "ed": build_electrodynamics,
}


MODEL_CASES = [(theory, name) for name in ("disk", "solid_torus") for theory in THEORIES]
COCHAIN_CASES = ["disk", "cylinder", "solid_torus"]


@pytest.fixture(scope="module", params=MODEL_CASES)
def reduced_model(request):
    theory, name = request.param
    return ReducedModel(THEORIES[theory](getattr(corpus, name)()))


# the model cases keep the ids they had when the test took reduced_model
@pytest.fixture(scope="module", params=MODEL_CASES + COCHAIN_CASES, ids=[
    f"reduced_model{i}" for i in range(len(MODEL_CASES))
] + [f"cochain_{name}" for name in COCHAIN_CASES])
def graded_pieces(request):
    """(piece, degrees) for the bulk, boundary, vertical and M_symp pieces
    of a reduced model, or for the relative, absolute and boundary cochain
    complexes of a corpus complex."""
    if isinstance(request.param, tuple):
        theory, name = request.param
        model = ReducedModel(THEORIES[theory](getattr(corpus, name)()))
        return [(p, model.ghosts)
                for p in (model.bulk, model.bdry, model.vert, model.msymp)]
    relc, incl, restr = getattr(corpus, request.param)().relative_complex()
    return [(c.piece, c.degrees()) for c in (relc, incl.target, restr.target)]


def test_class_coords_match_a_fresh_solve(graded_pieces):
    # the cached leading rows of one left inverse per degree against the
    # direct route: solve [reps | image] x = v and keep the rep coordinates
    from bvbfv.linalg import RatMatrix
    from vectors import solve_vector, vec_add, vec_scale

    for piece, degrees in graded_pieces:
        for g in degrees:
            reps = piece.reps(g).columns()
            m = piece.ins.get(g)
            im = basis(image_basis(m)) if m is not None and piece.dim(g) else []
            mat = RatMatrix.from_columns(list(reps) + list(im), piece.dim(g))
            mixed = {}
            for k, b in enumerate(list(reps) + list(im)):
                mixed = vec_add(mixed, vec_scale(b, k + 1))
            for v in list(reps) + [mixed]:
                x = solve_vector(mat, v)
                assert x is not None
                expect = {j: c for j, c in x.items() if j < len(reps)}
                assert piece.class_coords(g, v) == expect


def test_class_coords_rejects_non_cocycle(reduced_model):
    from bvbfv.moduli import ModuliError

    piece = reduced_model.bulk
    for g in reduced_model.ghosts:
        q = piece.q(g)
        if q.is_zero():
            continue
        (_, j), _ = next(iter(q.entries.items()))
        with pytest.raises(ModuliError):
            piece.class_coords(g, {j: Fraction(1)})
        return
    pytest.fail("no ghost with a nonzero differential")


def test_class_matrix_matches_class_coords_per_column():
    # on every pair of the corpus sweep on dimension <= 2: the one-product
    # class matrix of the cocycles at g (kernel basis, representatives and
    # a combination of them) is class_coords column by column, and a list
    # holding a non-cocycle raises class_coords' error
    from bvbfv.moduli import ModuliError

    for theory, name in small_pairs():
        model = ReducedModel(build_pair(theory, name))
        for piece in (model.bulk, model.bdry, model.vert, model.msymp):
            for g in model.ghosts:
                cocycles = basis(piece.kernel(g)) + piece.reps(g).columns()
                mixed = {}
                for k, v in enumerate(cocycles):
                    for i, x in v.items():
                        mixed[i] = mixed.get(i, 0) + (k + 1) * x
                vectors = cocycles + [{i: x for i, x in mixed.items() if x}]
                want = RatMatrix.from_columns(
                    [piece.class_coords(g, v) for v in vectors], piece.h_dim(g))
                got = piece.class_matrix(g, RatMatrix.from_columns(vectors, piece.dim(g)))
                assert got.shape == (piece.h_dim(g), len(vectors))
                assert got == want, (theory, name, piece.name, g)
                q = piece.q(g)
                if q.is_zero():
                    continue
                (_, j), = [next(iter(q.ints))]
                msg = f"vector is not a {piece.name} cocycle class in degree {g}"
                with pytest.raises(ModuliError, match=re.escape(msg)):
                    piece.class_matrix(g, RatMatrix.from_columns(vectors + [{j: Fraction(1)}],
                                                                 piece.dim(g)))


def test_lift_is_a_right_inverse_of_pi(reduced_model):
    from bvbfv.linalg import RatMatrix

    for g in reduced_model.ghosts:
        pi = reduced_model.pi_blocks[g]
        assert pi * reduced_model.lift(g) == RatMatrix.identity(pi.rows)


def test_pairing_blocks_match_per_cell_evaluation(reduced_model):
    from bvbfv.linalg import RatMatrix
    from vectors import vec_dot

    m, t = reduced_model, reduced_model.t
    c = m.pair_ghost()

    def flat(space, g, vecs):
        idx = space.ghost_indices(g)
        return [{idx[i]: v for i, v in vec.items()} for vec in vecs]

    def vert(g):
        return flat(t.bulk, g, [matvec(m.K[g], u) for u in m.vert.reps(g).columns()])

    def bulk(g):
        return flat(t.bulk, g, m.bulk.reps(g).columns())

    def bdry(g):
        return flat(t.bdry, g, m.bdry.reps(g).columns())

    def bulk_pairing(u, v):
        return pair_value(t.pair_bulk_mat, u, v)

    def pair_bdry(u, v):
        return vec_dot(u, matvec(t.omega_bdry, v))

    def cells(pair, left, right):
        out = RatMatrix(len(left), len(right))
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                out[i, j] = pair(x, y)
        return out

    for g in m.ghosts:
        assert m.pair_vert_bulk(g) == cells(bulk_pairing, vert(g), bulk(c - g))
        assert m.pair_bulk_vert(g) == cells(bulk_pairing, bulk(g), vert(c - g))
        assert m.pair_bdry_bdry(g) == cells(pair_bdry, bdry(g), bdry(c + 1 - g))


def test_cmd_moduli_builds_one_reduced_model(monkeypatch, tmp_path):
    import os

    from bvbfv import cli, moduli

    built = []
    init = moduli.ReducedModel.__init__

    def counting_init(self, t):
        built.append(t.kind)
        init(self, t)

    monkeypatch.setattr(moduli.ReducedModel, "__init__", counting_init)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = cli.main(["moduli", os.path.join(root, "corpus", "torus.json"),
                     "--theory", "ed", "--format", "structured",
                     "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert built == ["electrodynamics"]


# --- the vacua core, the flat routes, exactness of coordinates ---------------


def corpus_pairs():
    """Every (theory, complex) pair of the corpus that builds, as in
    scripts/corpus_report.py."""
    out = []
    for name, build in corpus.BUILDERS.items():
        dim = build().dimension
        out.append(("bf", name))
        if dim <= 3:
            out.append(("cs", name))
        if dim >= 1:
            out.append(("scalar", name))
        if dim >= 2:
            out.append(("ed", name))
    return out


def build_cx(theory, cx):
    if theory == "bf":
        return build_abelian_bf(cx, max(cx.dimension, 1))
    return THEORY_BUILDERS[theory](cx)


def build_pair(theory, name):
    return build_cx(theory, corpus.BUILDERS[name]())


@pytest.mark.parametrize("theory,name", corpus_pairs())
def test_vacua_core_dims_do_not_depend_on_the_kernel_basis(theory, name):
    # core_dims counts the kernel basis vectors inside each ghost block;
    # the count must be dim(kernel cap block), here from the two one-sided
    # kernels and intersect
    vac = vacua(ReducedModel(build_pair(theory, name)))
    pmat = vac["pairing"].matrix
    total = pmat.rows
    kern = kernel_basis(pmat.transpose()).intersect(kernel_basis(pmat)) \
        if total else Subspace.zero(0)
    for g, core in vac["core_dims"].items():
        off, dim = vac["offsets"][g], vac["vac_reps"][g].dim
        block = Subspace(total, [{i: 1} for i in range(off, off + dim)])
        assert core == vac["dims"][g] - kern.intersect(block).dim, g


def stratum_pairs():
    """Every codimension-1 stratum theory of bf, cs and ed that builds on a
    corpus complex, as the `--codim 1` ops of scripts/snapshot.py."""
    out = []
    for name, build in corpus.BUILDERS.items():
        for kind in ("abelian_bf", "abelian_cs", "electrodynamics"):
            try:
                theory_from_config(build(), {"kind": kind, "codim": 1})
            except TheoryError:
                continue
            out.append((f"{kind}@codim1", name))
    return out


def build_any(theory, name):
    if theory.endswith("@codim1"):
        kind = theory.removesuffix("@codim1")
        return theory_from_config(corpus.BUILDERS[name](), {"kind": kind, "codim": 1})
    return build_pair(theory, name)


@pytest.mark.parametrize("theory,name", corpus_pairs() + stratum_pairs())
def test_evolution_relation_matches_the_flat_route(theory, name):
    # the reference rebuilds L in the flat boundary space, pi of each ker Q
    # vector, and maps a basis of it to its classes in the reduced space
    from bvbfv.moduli import _bdry_sum
    from reference import classify_subspace

    model = ReducedModel(build_any(theory, name))
    t = model.t
    flat_l = span_of([matvec(t.pi, b) for b in basis(kernel_basis(t.Q))], t.bdry.total)
    layout = _bdry_sum(model)

    def classes(piece, vec):
        # the classes of the flat cocycle vec at each ghost, one vector at a time
        col = RatMatrix.from_columns([vec], piece.total)
        return {layout.offsets[g] + i: v for g in layout.offsets
                for i, v in piece.class_coords(g, piece.local(g, col).columns()[0]).items()}

    flat_reduced = span_of([classes(model.bdry, b) for b in basis(flat_l)], layout.total)
    ev = evolution_relation(model)
    assert ev["L_dim"] == flat_l.dim
    assert ev["reduced_L"] == flat_reduced
    assert ev["reduced_dims_total"] == flat_reduced.dim
    want = classify_subspace(ev["pairing"], flat_reduced) if layout.total else {
        "isotropic": True, "coisotropic": True, "lagrangian": True}
    assert ev["verdict"] == want


def _assembled_verdict(spans, block, partner):
    """classify_subspace on the form assembled from the per-ghost blocks,
    with L the sum of the spans placed at their ghosts' offsets."""
    from reference import classify_subspace
    from bvbfv.moduli import _GhostSum

    layout = _GhostSum({g: s.ambient_dim for g, s in spans.items()})
    if not layout.total:
        return {"isotropic": True, "coisotropic": True, "lagrangian": True}
    form = PairingForm(layout.total, layout.total, layout.pairing(block, partner))
    sub = span_of([{layout.offsets[g] + i: v for i, v in b.items()}
                       for g, s in spans.items() for b in basis(s)], layout.total)
    return classify_subspace(form, sub)


@pytest.mark.parametrize("theory,name", corpus_pairs() + stratum_pairs())
def test_evolution_relation_verdict_matches_classify_subspace(theory, name):
    # the per-ghost rank counts decide what classify_subspace decides on the
    # assembled form, with and without the perfect-block shortcut
    from bvbfv.moduli import _relation_verdict

    model = ReducedModel(build_any(theory, name))
    ev = evolution_relation(model)
    les = tangent_les(model)
    spans = {g: les.image(les.index[f"bdry@gh{g}"]) for g in model.ghosts}
    c = model.pair_ghost()
    want = _assembled_verdict(spans, model.pair_bdry_bdry, lambda g: c + 1 - g)
    assert ev["verdict"] == want
    assert _relation_verdict(spans, model.pair_bdry_bdry, lambda g: c + 1 - g,
                             lambda g: False) == want


# hand-built per-ghost forms on V_0 = V_1 = Q^2, pairing ghost 0 with 1:
# (blocks, spans as basis vectors per ghost, expected verdict)
HAND_BUILT = {
    # an antisymmetric perfect form and an isotropic line: not coisotropic
    "non_lagrangian": (
        {0: [[1, 0], [0, 1]], 1: [[-1, 0], [0, -1]]},
        {0: [{0: 1}], 1: []},
        {"isotropic": True, "coisotropic": False, "lagrangian": False}),
    # a degenerate block pair (each the other's negative transpose): L is
    # isotropic, and the shortcut would overcount the conditions on V_0
    "degenerate": (
        {0: [[1, 0], [0, 0]], 1: [[-1, 0], [0, 0]]},
        {0: [{0: 1}], 1: [{1: 1}]},
        {"isotropic": True, "coisotropic": False, "lagrangian": False}),
    # block(1)^T is neither block(0) nor its negative, both perfect: the
    # two-sided complement of L is 0, which takes both halves of each C_h
    # and no shortcut to see; L pairs with itself, so it is not isotropic
    "not_plus_minus_symmetric": (
        {0: [[1, 0], [1, 1]], 1: [[1, 0], [1, 1]]},
        {0: [{1: 1}], 1: [{0: 1}]},
        {"isotropic": False, "coisotropic": True, "lagrangian": False}),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_relation_verdict_on_hand_built_forms(case):
    from bvbfv.moduli import _perfect, _relation_verdict

    rows, vecs, want = HAND_BUILT[case]
    blocks = {g: RatMatrix.from_rows(r, 2) for g, r in rows.items()}
    spans = {g: Subspace(2, [{i: Fraction(x) for i, x in v.items()} for v in vs])
             for g, vs in vecs.items()}
    got = _relation_verdict(spans, blocks.__getitem__, lambda g: 1 - g,
                            lambda g: _perfect(blocks[g]))
    assert got == want
    assert _assembled_verdict(spans, blocks.__getitem__, lambda g: 1 - g) == want


@st.composite
def per_ghost_form(draw):
    """Ghosts 0..k-1, the involution g -> s - g (ghosts whose partner falls
    outside have none), per-ghost dims 0..3, a block per paired ghost, each
    pair either independent or +-transposes of each other, and a span per
    ghost from up to three random vectors."""
    k = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=0, max_value=2 * k - 2))
    dims = {g: draw(st.integers(min_value=0, max_value=3)) for g in range(k)}
    entry = st.integers(min_value=-2, max_value=2)

    def matrix(r, c):
        return RatMatrix.from_rows(
            [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)], c)

    blocks = {}
    for g in range(k):
        p = s - g
        if p not in dims or g in blocks:
            continue
        blocks[g] = matrix(dims[g], dims[p])
        if p != g:
            tie = draw(st.sampled_from([None, 1, -1]))
            blocks[p] = matrix(dims[p], dims[g]) if tie is None \
                else blocks[g].transpose().scale(tie)
    spans = {g: span_of([{i: Fraction(x) for i, x in enumerate(v) if x}
                             for v in draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                                    max_size=3))], n)
             for g, n in dims.items()}
    return spans, blocks, lambda g: s - g


@settings(max_examples=200, deadline=None)
@given(per_ghost_form())
def test_relation_verdict_matches_classify_subspace_on_random_forms(case):
    from bvbfv.moduli import _perfect, _relation_verdict

    spans, blocks, partner = case
    got = _relation_verdict(spans, blocks.__getitem__, partner,
                            lambda g: _perfect(blocks[g]))
    assert got == _assembled_verdict(spans, blocks.__getitem__, partner)


@pytest.mark.parametrize("theory,name", corpus_pairs())
def test_evolution_relation_and_vacua_eliminate_nothing_flat(theory, name, monkeypatch):
    # once the tangent LES and the Lefschetz blocks exist, the evolution
    # relation and the vacua read everything off them: no class coordinates
    # of flat vectors and no span in the flat bulk or boundary space
    import sys

    from bvbfv import complexes, linalg

    model = ReducedModel(build_pair(theory, name))
    tangent_les(model)
    lefschetz(model)
    t = model.t
    flat = {t.bulk.total, t.bdry.total}
    calls = []
    coords = complexes._GradedPiece.class_coords

    def recording_coords(self, g, vec):
        calls.append("class_coords")
        return coords(self, g, vec)

    def recording_span(m):
        if m.rows in flat:
            calls.append("column_span")
        return span(m)

    monkeypatch.setattr(complexes._GradedPiece, "class_coords", recording_coords)
    span = linalg.column_span
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bvbfv") and getattr(mod, "column_span", None) is span:
            monkeypatch.setattr(mod, "column_span", recording_span)
    evolution_relation(model)
    vacua(model)
    assert calls == []


@st.composite
def pairing_case(draw):
    """A small sparse rational form and lists of sparse vectors to pair by
    it on the left and on the right, either list possibly empty."""
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))

    def sparse(n):
        return st.dictionaries(st.integers(0, n - 1), entries, max_size=n) if n \
            else st.just({})

    form = RatMatrix(rows, cols)
    for (i, j), v in draw(st.dictionaries(st.tuples(st.integers(0, max(rows - 1, 0)),
                                                    st.integers(0, max(cols - 1, 0))),
                                          entries, max_size=rows * cols)).items():
        if v:
            form[i, j] = v
    left = draw(st.lists(sparse(rows), max_size=4))
    right = draw(st.lists(sparse(cols), max_size=4))
    return form, left, right


@settings(max_examples=150, deadline=None)
@given(pairing_case())
def test_pairing_block_matches_per_entry_evaluation(case):
    from bvbfv.moduli import _pairing_block
    from vectors import vec_dot

    form, left, right = case
    want = RatMatrix(len(left), len(right))
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            want[i, j] = vec_dot(x, matvec(form, y))
    got = _pairing_block(form, RatMatrix.from_columns(left, form.rows),
                         RatMatrix.from_columns(right, form.cols))
    assert got == want
    assert all(type(v) is Fraction and v for v in got.entries.values())


@pytest.mark.parametrize("theory,name", [
    ("ed", "solid_torus"), ("scalar", "disk"), ("bf", "torus_times_interval")])
def test_coordinates_stay_exact(theory, name, monkeypatch):
    # integer arithmetic inside linalg must hand out Fractions, never the
    # floats that a / b on two ints gives
    from bvbfv import linalg

    seen = []
    coords = linalg.Subspace._coords_of

    def recording_coords(self, m):
        x = coords(self, m)
        if x is not None:
            seen.extend(x.entries.values())
        return x

    monkeypatch.setattr(linalg.Subspace, "_coords_of", recording_coords)
    model = ReducedModel(build_pair(theory, name))
    moduli_report(model)
    for piece in (model.bulk, model.bdry, model.vert, model.msymp):
        for cmap in piece._coords.values():
            seen.extend(cmap.entries.values())
    for maps in (model._chi, model._psi, model._beta):
        for m in maps.values():
            seen.extend(m.entries.values())
    assert seen
    assert all(type(x) is Fraction for x in seen)


@pytest.mark.parametrize("theory,name", [("ed", "solid_torus"), ("bf", "torus_times_interval")])
def test_moduli_report_eliminates_each_map_once(theory, name, monkeypatch):
    # the kernel and the image of chi, psi and beta are each eliminated once,
    # by the tangent LES: vacua reads Im chi, ker chi and ker psi off it, and
    # a ghost-zero slice of the same model reads the pieces' cached kernels
    # and images
    import sys

    from bvbfv import linalg
    from bvbfv.theories import ghost_zero_slice

    calls = []
    for fname in ("kernel_basis", "image_basis"):
        orig = getattr(linalg, fname)

        def recording(m, *args, _orig=orig, _name=fname, **kw):
            calls.append((_name, m))  # the object, so no id is reused
            return _orig(m, *args, **kw)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("bvbfv") and getattr(mod, fname, None) is orig:
                monkeypatch.setattr(mod, fname, recording)
    model = ReducedModel(build_pair(theory, name))
    moduli_report(model)
    maps = [m for d in (model._chi, model._psi, model._beta) for m in d.values()]
    assert maps
    for m in maps:
        for fname in ("kernel_basis", "image_basis"):
            assert sum(f == fname and x is m for f, x in calls) <= 1, (fname, m.shape)
    before = len(calls)
    ghost_zero_slice(model)
    assert len(calls) == before


@pytest.mark.parametrize("theory,name", [("bf", "torus_times_interval"), ("ed", "solid_torus")])
def test_class_spaces_eliminate_no_image_basis(theory, name, monkeypatch):
    # reps hands the quotient the columns of the map into each ghost, so
    # finding the classes of every piece eliminates no image basis
    import sys

    from bvbfv import linalg

    model = ReducedModel(build_pair(theory, name))
    pieces = (model.bulk, model.bdry, model.vert, model.msymp)
    calls = []
    orig = linalg.image_basis

    def recording(m):
        calls.append(m.shape)
        return orig(m)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bvbfv") and getattr(mod, "image_basis", None) is orig:
            monkeypatch.setattr(mod, "image_basis", recording)
    dims = [piece.h_dim(g) for piece in pieces for g in model.ghosts]
    assert any(dims)
    assert calls == []


def reps_by_the_solve_route(piece, g):
    """reps(g) and the coordinate map's entries, in order, by quotient's
    general route: each column of ins[g] solved against ker q(g), the
    kernel basis visited in the fill order of the whole ins[g]."""
    from bvbfv.linalg import _fill_order, _quotient_of_coords

    m = piece.ins.get(g)
    ker = kernel_basis(piece.q(g))
    ys = None if m is None else ker._coords_of(m)
    assert m is None or ys is not None
    comp, coords = _quotient_of_coords(ker, ys, _fill_order(ker, m))
    return comp.matrix(), list(coords.entries.items())


def assert_reps_match_the_solve_route(pieces, ghosts):
    for piece in pieces:
        for g in ghosts:
            if piece.dim(g):
                got = (piece.reps(g), list(piece._coords[g].entries.items()))
                assert got == reps_by_the_solve_route(piece, g), (piece.name, g)


@pytest.mark.parametrize("theory,name", corpus_pairs() + stratum_pairs())
def test_class_spaces_match_the_solve_route(theory, name):
    # reps reads the kernel coordinates of ins[g]'s columns after one
    # membership product; the reference solves each column
    model = ReducedModel(build_any(theory, name))
    assert_reps_match_the_solve_route(
        (model.bulk, model.bdry, model.vert, model.msymp), model.ghosts)


def q_squared_nonzero_torus():
    """ed on the torus with the first entry of Q doubled, which breaks
    Q^2 = 0 at ghost 0: the image of Q from ghost 1 leaves ker Q."""
    t = build_electrodynamics(corpus.torus())
    bad = t.Q.copy()
    key = min(bad.entries)
    bad[key] = 2 * bad[key]
    t.Q = bad
    return t


def test_class_space_refuses_an_image_outside_the_kernel():
    from bvbfv.linalg import SubspaceNotContained

    t = q_squared_nonzero_torus()
    assert not (t.Q * t.Q).is_zero()
    model = ReducedModel(t)
    raised = []
    for g in model.ghosts:
        try:
            model.bulk.reps(g)
        except SubspaceNotContained as e:
            assert str(e) == "sub is not inside ambient"
            raised.append(g)
    assert raised == [0]


def _betti(dims, d, degrees):
    """b_k = dim C^k - rank d_k - rank d_(k-1) for k in degrees, with the
    ranks from `stacked_rank` alone."""
    from bvbfv.linalg import stacked_rank

    rank = {k: stacked_rank(d(k)) for k in degrees}
    return {k: dims(k) - rank[k] - rank.get(k - 1, 0) for k in degrees}


def _absolute_betti(cx):
    top = cx.dimension
    return _betti(cx.n_faces, lambda k: cx.coboundary_matrix(k) if k < top
                  else RatMatrix(0, cx.n_faces(k)), range(top + 1))


@pytest.mark.parametrize("theory,name", [p for p in corpus_pairs() if p[0] in ("bf", "cs")])
def test_reduced_dims_are_betti_sums(theory, name):
    # the topological oracle, sharing nothing with the reduction engine:
    # with a family of shift s holding the k-cochains at ghost s - k, the
    # bulk, vertical and boundary cohomology at ghost g are the sums over
    # the families of H^k(N), H^k(N, dN) and H^k(dN) at k = s - g
    cx = corpus.BUILDERS[name]()
    t = build_pair(theory, name)
    model = ReducedModel(t)
    shifts = (1, t.n - 2) if theory == "bf" else (1,)
    relc = cx.relative_complex()[0]
    bc = cx.boundary_complex()
    betti = {
        "bulk": _absolute_betti(cx),
        "vert": _betti(relc.dim, relc.d, range(cx.dimension + 1)),
        "bdry": _absolute_betti(bc) if bc.n_faces(0) else {},
    }
    for piece, b in betti.items():
        got = getattr(model, piece)
        want = {}
        for s in shifts:
            for k, x in b.items():
                want[s - k] = want.get(s - k, 0) + x
        for g in sorted(set(want) | set(model.ghosts)):
            assert got.h_dim(g) == want.get(g, 0), (piece, g)


@pytest.mark.parametrize("theory,name", corpus_pairs())
def test_gh0_slice_matches_moduli_report(theory, name):
    from bvbfv.theories import ghost_zero_slice

    t = build_pair(theory, name)
    sl = ghost_zero_slice(ReducedModel(t))
    rep = moduli_report(ReducedModel(t))
    assert sl["el_dim"] == rep["el_dims"].get(0, 0)
    assert sl["moduli_dim"] == rep["moduli_dims"].get(0, 0)


# --- literal regularity against the complement route ---------------------------


def flat_im_q_vert(model):
    """Im Q^vert in the flat bulk space: the column span of Q K, with the
    columns of each K[g] embedded at ghost g."""
    t = model.t
    return span_of([matvec(t.Q, k) for g in model.ghosts
                        for k in model.bulk.flat(g, model.K[g]).columns()], t.bulk.total)


def complement_route_checks(model):
    """The literal regularity checks decided in the flat field spaces: each
    perp as a two-sided complement, compared with a basis of the image."""
    from bvbfv.linalg import PairingForm
    from reference import two_sided_complement

    t = model.t
    p = PairingForm(t.bulk.total, t.bulk.total, t.omega)
    ker_qv = Subspace(t.bulk.total, [
        b for g in model.ghosts
        for b in model.bulk.flat(g, model.K[g] * model.vert.kernel(g).matrix()).columns()],
        check=False)
    checks = {
        "ker_q_perp_is_im_q_vert":
            two_sided_complement(p, kernel_basis(t.Q)) == flat_im_q_vert(model),
        "ker_q_vert_perp_is_im_q": two_sided_complement(p, ker_qv) == image_basis(t.Q),
        "bdry_ker_perp_is_im": True,
    }
    if t.bdry.total:
        pb = PairingForm(t.bdry.total, t.bdry.total, t.omega_bdry)
        checks["bdry_ker_perp_is_im"] = \
            two_sided_complement(pb, kernel_basis(t.Q_bdry)) == image_basis(t.Q_bdry)
    return checks


def with_changed_pair(t, form, change, pick=min):
    """t with change(w, i, j) applied to a copy w of its pairing `form`, at
    the first (pick=min) or last (pick=max) entry (i, j) with i < j."""
    w = getattr(t, form).copy()
    change(w, *pick(ij for ij in w.entries if ij[0] < ij[1]))
    setattr(t, form, w)
    return t


def negate_pair(w, i, j):
    # still nondegenerate and symmetric, so only the products can tell it
    w[i, j], w[j, i] = -w[i, j], -w[j, i]


def drop_pair(w, i, j):
    w[i, j] = w[j, i] = 0


def negate_one_entry(w, i, j):
    w[i, j] = -w[i, j]


def regularity_cases():
    """Every scalar and ed corpus pair and the subdivided copies of those of
    dimension <= 2, the massive scalar, the broken-Q torus, and the torus
    and the sphere with one omega pair negated."""
    out = {}
    for theory, name in corpus_pairs():
        if theory in ("scalar", "ed"):
            build = THEORY_BUILDERS[theory]
            cx = corpus.BUILDERS[name]()
            out[f"{theory}-{name}"] = lambda b=build, n=name: b(corpus.BUILDERS[n]())
            if cx.dimension <= 2:
                out[f"{theory}-{name}-subdivided"] = \
                    lambda b=build, n=name: b(corpus.subdivide(corpus.BUILDERS[n]()))
    for name in ("circle", "disk"):
        out[f"scalar-{name}-mass-3/2"] = \
            lambda n=name: build_scalar(corpus.BUILDERS[n](), Fraction(3, 2))
    out["ed-torus-broken-q"] = broken_q_torus
    for theory in ("scalar", "ed"):
        for name in ("torus", "sphere"):
            for which, pick in (("first", min), ("last", max)):
                out[f"{theory}-{name}-{which}-omega-pair-negated"] = \
                    lambda b=THEORY_BUILDERS[theory], n=name, p=pick: \
                    with_changed_pair(b(corpus.BUILDERS[n]()), "omega", negate_pair, p)
    return out


REGULARITY_CASES = regularity_cases()


@pytest.mark.parametrize("case", REGULARITY_CASES)
def test_regularity_matches_the_complement_route(case):
    model = ReducedModel(REGULARITY_CASES[case]())
    rep = regularity(model)
    assert rep["checks"] == complement_route_checks(model)
    assert rep["regular"] == all(rep["checks"].values())
    assert (rep["witness"] is None) == rep["regular"]
    if rep["witness"] is not None:
        assert not rep["checks"][rep["witness"]["identity"]]


def test_regularity_cases_reach_both_inclusion_verdicts():
    # the negated pairs keep every dimension, so the products decide
    verdicts = set()
    for case, build in REGULARITY_CASES.items():
        if case.endswith("omega-pair-negated"):
            rep = regularity(ReducedModel(build()))
            assert rep["regular"] or "slot" in rep["witness"]
            verdicts.add(rep["regular"])
    assert verdicts == {True, False}


@pytest.mark.parametrize("theory,name", [
    ("scalar", "disk"), ("ed", "disk"), ("scalar", "solid_torus"), ("ed", "solid_torus")])
def test_regularity_witness_gap_is_the_complement_gap(theory, name):
    from bvbfv.linalg import PairingForm
    from reference import two_sided_complement

    model = ReducedModel(build_pair(theory, name))
    t = model.t
    p = PairingForm(t.bulk.total, t.bulk.total, t.omega)
    gap = two_sided_complement(p, kernel_basis(t.Q)).dim - flat_im_q_vert(model).dim
    assert gap > 0
    assert regularity(model)["witness"] == {"identity": "ker_q_perp_is_im_q_vert", "gap": gap}


@pytest.mark.parametrize("theory,name", [
    ("scalar", "disk"), ("ed", "solid_torus"), ("ed", "torus")])
def test_regularity_eliminates_nothing_after_the_report(theory, name, monkeypatch):
    # once moduli_report has built the pieces, regularity and the symplectic
    # agreement of q_reduce read every dimension off them and decide each
    # inclusion by one product
    import sys

    from bvbfv import linalg

    model = ReducedModel(build_pair(theory, name))
    moduli_report(model)
    calls = []

    def recorded(name, orig):
        def recording(*args):
            calls.append(name)
            return orig(*args)
        return recording

    for fname in ("kernel_basis", "image_basis", "quotient", "_left_inverse"):
        orig = getattr(linalg, fname)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("bvbfv") and getattr(mod, fname, None) is orig:
                monkeypatch.setattr(mod, fname, recorded(fname, orig))
    monkeypatch.setattr(linalg.Subspace, "intersect",
                        recorded("intersect", linalg.Subspace.intersect))
    regularity(model)
    q_reduce(model)
    assert calls == []


@pytest.mark.parametrize("theory,name", [("scalar", "torus"), ("ed", "torus")])
def test_moduli_report_ranks_the_bulk_omega_once(theory, name, monkeypatch):
    # q_reduce and regularity both need omega nondegenerate; the model
    # decides it once for both
    from bvbfv import linalg

    t = build_pair(theory, name)
    ranked = []
    rank = linalg.RatMatrix.rank

    def recording(self):
        ranked.append(self is t.omega)
        return rank(self)

    monkeypatch.setattr(linalg.RatMatrix, "rank", recording)
    rep = moduli_report(ReducedModel(t))
    assert rep["symp_reduction_agrees"] is not None and rep["regularity"]["regular"]
    assert ranked.count(True) == 1


@pytest.mark.parametrize("theory,name,form,change", [
    ("scalar", "torus", "omega", drop_pair),
    ("ed", "disk", "omega", drop_pair),
    ("scalar", "interval", "omega_bdry", drop_pair),
    ("scalar", "torus", "omega", negate_one_entry),
    ("ed", "solid_torus", "omega_bdry", negate_one_entry),
], ids=["scalar-torus-degenerate", "ed-disk-degenerate", "scalar-interval-bdry-degenerate",
        "scalar-torus-not-symmetric", "ed-solid_torus-bdry-not-antisymmetric"])
def test_regularity_refuses_a_pairing_it_cannot_count_against(theory, name, form, change):
    # the counts need a nondegenerate pairing, and the one-sided product a
    # symmetric or antisymmetric one
    from bvbfv.moduli import ModuliError

    t = with_changed_pair(build_pair(theory, name), form, change)
    with pytest.raises(ModuliError):
        regularity(ReducedModel(t))


# --- the symplectic reduction of EL against the flat route ---------------------


def flat_symp_reduction_agrees(t):
    """q_reduce's verdict decided in the flat bulk space: EL cap EL^perp,
    from kernel_basis(Q) and its left complement, against image_basis(Q);
    None where q_reduce makes no check."""
    from bvbfv.linalg import PairingForm
    from reference import orthogonal_complement

    if not (t.cx.is_closed() and t.omega is not None):
        return None
    p = PairingForm(t.bulk.total, t.bulk.total, t.omega)
    if not p.nondegenerate():
        return None
    el = kernel_basis(t.Q)
    return el.intersect(orthogonal_complement(p, "left", el)) == image_basis(t.Q)


def symp_reduction_cases():
    """Every corpus pair and stratum, the broken-Q torus, the massive scalar,
    bf, scalar and ed on the torus and the sphere with one omega pair or one
    omega entry negated, and every closed corpus pair subdivided."""
    out = {f"{theory}-{name}": lambda th=theory, n=name: build_any(th, n)
           for theory, name in corpus_pairs() + stratum_pairs()}
    out["ed-torus-broken-q"] = broken_q_torus
    for name in ("circle", "disk"):
        out[f"scalar-{name}-mass-3/2"] = \
            lambda n=name: build_scalar(corpus.BUILDERS[n](), Fraction(3, 2))
    changes = {"first-omega-pair-negated": (negate_pair, min),
               "last-omega-pair-negated": (negate_pair, max),
               "omega-entry-negated": (negate_one_entry, min)}
    for theory in ("bf", "scalar", "ed"):
        for name in ("torus", "sphere"):
            for which, (change, pick) in changes.items():
                out[f"{theory}-{name}-{which}"] = \
                    lambda th=theory, n=name, c=change, p=pick: \
                    with_changed_pair(build_pair(th, n), "omega", c, p)
    for theory, name in corpus_pairs():
        if corpus.BUILDERS[name]().is_closed():
            out[f"{theory}-{name}-subdivided"] = lambda th=theory, n=name: build_cx(
                th, corpus.subdivide(corpus.BUILDERS[n]()))
    return out


SYMP_REDUCTION_CASES = symp_reduction_cases()


@pytest.mark.parametrize("case", SYMP_REDUCTION_CASES)
def test_symp_reduction_agrees_matches_the_flat_route(case):
    t = SYMP_REDUCTION_CASES[case]()
    assert q_reduce(ReducedModel(t)).get("symp_reduction_agrees") == \
        flat_symp_reduction_agrees(t)


def test_symp_reduction_cases_reach_every_verdict():
    verdicts = {q_reduce(ReducedModel(build())).get("symp_reduction_agrees")
                for build in SYMP_REDUCTION_CASES.values()}
    assert verdicts == {True, False, None}


# --- ker pi read off pi's columns ----------------------------------------------


def eliminated_vertical(model):
    """The vertical complex as it was built by elimination: a kernel basis
    of each pi block, and Q on it through the coordinates of each image in
    the kernel basis one ghost down."""
    from bvbfv.complexes import _GradedPiece
    from bvbfv.moduli import ModuliError

    ker = {g: kernel_basis(pi) for g, pi in model.pi_blocks.items()}
    vq = {}
    for g, k in ker.items():
        rows = ker[g - 1].dim if g - 1 in ker else 0
        vq[g] = RatMatrix(rows, k.dim)
        if k.dim and rows:
            qk = model.bulk.q(g) * k.matrix()
            cols = [coords_of(ker[g - 1], c) for c in sparse_rows(qk.transpose())]
            assert None not in cols
            vq[g] = RatMatrix.from_columns(cols, rows)
    return ker, _GradedPiece.of_differential(
        "vertical", {g: k.dim for g, k in ker.items()}, vq, -1, ModuliError)


@pytest.mark.parametrize("theory,name", corpus_pairs() + stratum_pairs())
def test_vertical_complex_matches_the_eliminated_route(theory, name):
    # pi is a coordinate projection, so ker pi is the unit vectors of the
    # columns it does not read and pi^T lifts; the old route eliminated both
    from bvbfv.linalg import _left_inverse

    model = ReducedModel(build_any(theory, name))
    ker, vert = eliminated_vertical(model)
    for g, pi in model.pi_blocks.items():
        assert model.K[g] == ker[g].matrix()
        assert model.lift(g) == _left_inverse(pi.transpose()).transpose()
    for g in range(min(model.ghosts) - 1, max(model.ghosts) + 1):
        assert model.vert.q(g) == vert.q(g)
        assert model.vert.reps(g) == vert.reps(g)
        assert model.vert.h_dim(g) == vert.h_dim(g)


def _read_twice(row, other):
    """A two-entry row: row's entry and one more, at another column."""
    (j, v), = row.items()
    return {j: v, other: v}


@pytest.mark.parametrize("change", [
    lambda rows, free: [_read_twice(rows[0], free)] + rows[1:],
    lambda rows, free: [{j: 2 * v for j, v in rows[0].items()}] + rows[1:],
    lambda rows, free: [rows[0], dict(rows[0])] + rows[2:],
], ids=["two-entry-row", "entry-of-2", "two-rows-on-one-column"])
def test_vertical_pieces_refuse_a_pi_that_is_not_a_coordinate_projection(change):
    from bvbfv.moduli import ModuliError

    model = ReducedModel(build_abelian_bf(corpus.disk()))
    g = next(g for g in model.ghosts
             if model.pi_blocks[g].rows >= 2 and model.K[g].cols)
    pi = model.pi_blocks[g]
    free = min(i for i, _ in model.K[g].entries)
    model = ReducedModel(model.t)
    model.pi_blocks = {**model.pi_blocks,
                       g: RatMatrix.from_rows(change(sparse_rows(pi), free), pi.cols)}
    for build in (lambda: model.K, lambda: model.vert, lambda: model.lift(g)):
        with pytest.raises(ModuliError, match="coordinate projection"):
            build()


# --- eliminations shared within one op ----------------------------------------


def block_content(m):
    """The exact content of a block, kept by the test itself: its shape
    and its entries in storage order (None for a missing map)."""
    return None if m is None else (m.rows, m.cols, tuple(m.entries.items()))


def piece_eliminations(monkeypatch):
    """The list, filled as pieces eliminate, of the content of every block
    a `_GradedPiece` eliminates: ("ker", q) per kernel and ("cls", q, ins)
    per class space, each with the whole block, whichever of its rows or
    columns clearing lets the elimination read.  Eliminations by other
    callers are not listed."""
    import sys

    from bvbfv import complexes

    seen = []
    kernel_basis, class_space = complexes.kernel_basis, complexes._GradedPiece._class_space

    piece_methods = {complexes._GradedPiece.kernel.__code__,
                     complexes._GradedPiece.reps.__code__}

    def by_piece():
        # called, at any depth, from a piece's kernel or reps
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in piece_methods:
            frame = frame.f_back
        return frame is not None

    def recording_kernel(q, rows=None):
        if by_piece():
            seen.append(("ker", block_content(q)))
        return kernel_basis(q, rows)

    def recording_class_space(piece, g):
        seen.append(("cls", block_content(piece.q(g)), block_content(piece.ins.get(g))))
        return class_space(piece, g)

    monkeypatch.setattr(complexes, "kernel_basis", recording_kernel)
    monkeypatch.setattr(complexes._GradedPiece, "_class_space", recording_class_space)
    return seen


def assert_each_block_eliminated_once(seen):
    from collections import Counter

    repeats = [(key[0], n) for key, n in Counter(seen).items() if n > 1]
    assert seen and not repeats, repeats


def test_moduli_op_eliminates_each_piece_block_once(monkeypatch, tmp_path):
    # on a closed complex pi reads nothing, so the vertical and symplectic
    # pieces meet the bulk's blocks; one op eliminates each of them once
    import os

    from bvbfv import cli

    seen = piece_eliminations(monkeypatch)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = cli.main(["moduli", os.path.join(root, "corpus", "torus.json"),
                     "--theory", "cs", "--format", "structured",
                     "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert_each_block_eliminated_once(seen)


def assert_memo_as_computed():
    """Every result in the open memo equals a fresh elimination of the
    block its key names: no caller has changed a shared kernel,
    representative list or coordinate map."""
    from bvbfv import complexes
    from bvbfv.linalg import _fill_order, _kernel_quotient

    def block(content):
        if content is None:
            return None
        rows, cols, keys, nums, den = content
        return RatMatrix.of_ints(rows, cols, dict(zip(keys, nums)), den)

    assert complexes._memo
    for key, value in complexes._memo.items():
        q = block(key[1])
        if key[0] == "ker":
            assert basis(value) == basis(kernel_basis(q))
        else:
            ker, ins = kernel_basis(q), block(key[2])
            comp, coords = _kernel_quotient(q, ker, ins, _fill_order(ker, ins))
            assert (basis(value[0]), value[1]) == (basis(comp), coords)


def test_fill_ordered_class_maps_are_sparser_on_ed_solid_torus():
    # the vertical and symplectic class spaces at ghost -1, the largest of
    # the cotangent models, visit their kernels in fill order; index order
    # on the same blocks gives denser class maps
    from bvbfv.linalg import _kernel_quotient

    model = ReducedModel(build_pair("ed", "solid_torus"))
    for piece in (model.vert, model.msymp):
        q, ins = piece.q(-1), piece.ins.get(-1)
        piece.reps(-1)
        _, by_index = _kernel_quotient(q, kernel_basis(q), ins)
        assert piece._coords[-1].nnz < by_index.nnz, piece.name


def small_pairs():
    return [(theory, name) for theory, name in corpus_pairs()
            if corpus.BUILDERS[name]().dimension <= 2]


def test_shared_eliminations_change_no_report():
    # every (theory, complex) pair of the corpus sweep on dimension <= 2:
    # the report and every piece's representatives are the same with the
    # pieces sharing their eliminations as without
    from bvbfv.complexes import shared_eliminations

    def run(theory, name):
        model = ReducedModel(build_pair(theory, name))
        report = moduli_report(model)
        pieces = (model.bulk, model.bdry, model.vert, model.msymp)
        return report, [(p.reps(g), p._coords[g]) for p in pieces for g in model.ghosts]

    for theory, name in small_pairs():
        alone = run(theory, name)
        with shared_eliminations():
            shared = run(theory, name)
            assert_memo_as_computed()
        assert shared == alone, (theory, name)


def test_shared_eliminations_scope_is_dropped_on_exit():
    from bvbfv import complexes
    from bvbfv.complexes import shared_eliminations

    with pytest.raises(RuntimeError):
        with shared_eliminations():
            memo = complexes._memo
            # a scope opened inside another is the same scope
            with shared_eliminations():
                assert complexes._memo is memo
            assert complexes._memo is memo
            raise RuntimeError
    assert complexes._memo is None


# --- decided by ranks, cleared by neighbouring kernels ----------------------------


@pytest.mark.parametrize("theory,name", corpus_pairs() + stratum_pairs())
def test_rank_verdicts_match_the_subspace_route(theory, name):
    # the tangent LES decides exactness, and vacua ker(P chi) = ker chi, by
    # ranks; the routes they replaced compared eliminated subspaces
    from reference import exactness_by_subspaces, vert_form_kernel_is_ker_chi_by_kernels

    model = ReducedModel(build_any(theory, name))
    les = tangent_les(model)
    assert les.verdicts == exactness_by_subspaces(les)
    assert vacua(model)["vert_form_kernel_is_ker_chi"] == \
        vert_form_kernel_is_ker_chi_by_kernels(model)


@pytest.mark.parametrize("theory,name,holds", [("cs", "solid_torus", True),
                                               ("scalar", "interval", False),
                                               ("ed", "solid_torus", False)])
def test_vert_form_kernel_verdict_both_ways(theory, name, holds):
    assert vacua(ReducedModel(build_pair(theory, name)))["vert_form_kernel_is_ker_chi"] is holds


def storage(m):
    """A matrix's storage, key for key in storage order."""
    return m.shape, m.den, list(m.ints.items())


def test_cleared_pieces_equal_the_uncleared_eliminations(monkeypatch):
    # on the dimension <= 2 corpus pairs and on solid_torus, every kernel,
    # representative list and class map of the bulk, boundary, vertical and
    # symplectic pieces and of the cochain complex equals kernel_basis of
    # the whole block and the class space of its whole map in, its kernel
    # basis visited in the fill order of that whole map
    from bvbfv import complexes
    from bvbfv.linalg import _fill_order, _kernel_quotient

    cleared = {"ker": 0, "any": 0}
    kernel, free_columns = complexes.kernel_basis, complexes._free_columns

    def recording_kernel(q, rows=None):
        cleared["ker"] += rows is not None
        return kernel(q, rows)

    def recording_free_columns(ker):
        cleared["any"] += 1
        return free_columns(ker)

    monkeypatch.setattr(complexes, "kernel_basis", recording_kernel)
    monkeypatch.setattr(complexes, "_free_columns", recording_free_columns)
    pairs = small_pairs() + [(theory, "solid_torus") for theory in ("bf", "cs", "scalar", "ed")]
    for theory, name in pairs:
        model = ReducedModel(build_pair(theory, name))
        moduli_report(model)
        cc = model.t.cx.cochain_complex()
        cc.betti()
        for piece in (model.bulk, model.bdry, model.vert, model.msymp, cc.piece):
            for g in piece.dims:
                q, ins = piece.q(g), piece.ins.get(g)
                ker = kernel_basis(q)
                assert storage(piece.kernel(g).matrix()) == storage(ker.matrix())
                assert storage(piece.kernel(g)._left_inv()) == storage(ker._left_inv())
                if piece.dim(g):
                    comp, coords = _kernel_quotient(q, ker, ins, _fill_order(ker, ins))
                    assert storage(piece.reps(g)) == storage(comp.matrix()), (theory, name, g)
                    assert storage(piece._coords[g]) == storage(coords), (theory, name, g)
    # both kinds of clearing ran: kernels with rows left out, and class
    # spaces with columns left out (the other calls of _free_columns)
    assert cleared["ker"] and cleared["any"] > cleared["ker"]
