import json
import os
import random
from fractions import Fraction

import pytest

from bvbfv import corpus
from bvbfv.complexes import les_of_pair, connecting_map
from bvbfv.linalg import RatMatrix
from bvbfv.simplicial import (
    DuplicateSimplex,
    IncoherentOrientation,
    NonManifoldFace,
    OrientedComplex,
    load_complex,
)


ALL = [
    "interval",
    "interval3",
    "circle",
    "disk",
    "disk_fan",
    "sphere",
    "cylinder",
    "annulus",
    "torus",
    "solid_torus",
    "torus_times_interval",
]

KNOWN_BETTI = {
    "interval": {0: 1, 1: 0},
    "interval3": {0: 1, 1: 0},
    "circle": {0: 1, 1: 1},
    "disk": {0: 1, 1: 0, 2: 0},
    "disk_fan": {0: 1, 1: 0, 2: 0},
    "sphere": {0: 1, 1: 0, 2: 1},
    "cylinder": {0: 1, 1: 1, 2: 0},
    "annulus": {0: 1, 1: 1, 2: 0},
    "torus": {0: 1, 1: 2, 2: 1},
    "solid_torus": {0: 1, 1: 1, 2: 0, 3: 0},
    "torus_times_interval": {0: 1, 1: 2, 2: 1, 3: 0},
}


def build(name):
    return corpus.BUILDERS[name]()


def random_cochain(cx, k, rng):
    out = {}
    for i in range(cx.n_faces(k)):
        if rng.random() < 0.8:
            v = rng.randrange(-4, 5)
            if v:
                out[i] = Fraction(v)
    return out


# --- construction and invariants -------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_builders_validate_and_betti(name):
    cx = build(name)
    cc = cx.cochain_complex()
    assert cc.betti() == KNOWN_BETTI[name]


@pytest.mark.parametrize("name", [n for n in ALL if build(n).dimension <= 2])
def test_subdivision_keeps_betti_numbers(name):
    # one vertex per face, (D+1)! top simplices per top simplex, coherently
    # oriented (the constructor validates), the same (boundary) cohomology
    cx = build(name)
    sd = corpus.subdivide(cx)
    dim = cx.dimension
    assert sd.n_faces(0) == sum(cx.n_faces(k) for k in range(dim + 1))
    assert len(sd.top) == len(cx.top) * [1, 2, 6][dim]
    assert sd.cochain_complex().betti() == KNOWN_BETTI[name]
    bc, sbc = cx.boundary_complex(), sd.boundary_complex()
    assert sbc.n_faces(0) == sum(bc.n_faces(k) for k in range(dim))
    if bc.n_faces(0):
        assert sbc.cochain_complex().betti() == bc.cochain_complex().betti()


@pytest.mark.parametrize("name", ALL)
def test_euler_characteristic_identity(name):
    cc = build(name).cochain_complex()
    betti = cc.betti()
    assert cc.euler_characteristic() == sum((-1) ** k * b for k, b in betti.items())


def test_torus_grid_shape():
    t = corpus.torus()
    assert len(t.vertex_ids) == 9 and t.n_faces(2) == 18
    assert t.is_closed()


def test_cylinder_has_twelve_triangles():
    c = corpus.cylinder()
    assert c.n_faces(2) == 12
    assert c.boundary_complex().n_faces(1) == 6  # two 3-edge circles


def test_boundary_of_fundamental_chain_is_boundary_cycle():
    for name in ALL:
        cx = build(name)
        bc = cx.boundary_complex()
        if not bc.n_faces(0):
            continue
        # d^T of the fundamental cycle, restricted to boundary faces, equals
        # the boundary fundamental cycle under the induced identification
        n = cx.dimension
        d = cx.coboundary_matrix(n - 1)
        chain = cx.fundamental_cycle()
        bd = d.transpose().matvec(chain)
        expect = {}
        for f, s in cx.boundary_faces().items():
            expect[cx.face_index(n - 1, f)] = Fraction(s)
        assert bd == expect


def test_incoherent_orientation_rejected():
    # both triangles induce the same sign on the shared edge (1,2)
    with pytest.raises(IncoherentOrientation):
        OrientedComplex(2, [0, 1, 2, 3], [[0, 1, 2], [1, 2, 3]], [1, 1])


def test_nonmanifold_face_rejected():
    with pytest.raises(NonManifoldFace):
        OrientedComplex(2, [0, 1, 2, 3, 4], [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def test_duplicate_simplex_rejected():
    with pytest.raises(DuplicateSimplex):
        OrientedComplex(1, [0, 1], [[0, 1], [1, 0]])
    with pytest.raises(DuplicateSimplex):
        OrientedComplex(1, [0, 1], [[0, 0]])


def test_roundtrip_identical_derived_matrices(tmp_path):
    for name in ("disk_fan", "torus", "solid_torus"):
        cx = build(name)
        p = tmp_path / f"{name}.json"
        cx.save(p)
        cx2 = load_complex(str(p))
        p2 = tmp_path / f"{name}2.json"
        cx2.save(p2)
        assert p.read_text() == p2.read_text()
        for k in range(cx.dimension):
            assert cx.coboundary_matrix(k) == cx2.coboundary_matrix(k)
        assert cx.fundamental_cycle() == cx2.fundamental_cycle()


# --- Stokes and Leibniz -------------------------------------------------------


@pytest.mark.parametrize("name", ["interval", "disk", "disk_fan", "cylinder", "solid_torus"])
def test_stokes_exact(name):
    rng = random.Random(5)
    cx = build(name)
    n = cx.dimension
    restr = cx.restriction_matrix(n - 1)
    for _ in range(6):
        b = random_cochain(cx, n - 1, rng)
        lhs = cx.evaluate(cx.coboundary_matrix(n - 1).matvec(b))
        rhs = cx.boundary_evaluate(restr.matvec(b))
        assert lhs == rhs


@pytest.mark.parametrize("name", ["disk", "disk_fan", "torus", "solid_torus"])
def test_cup_leibniz_exact(name):
    rng = random.Random(11)
    cx = build(name)
    n = cx.dimension
    for k in range(0, n):
        for l in range(0, n - k):
            a = random_cochain(cx, k, rng)
            b = random_cochain(cx, l, rng)
            lhs = cx.coboundary_matrix(k + l).matvec(cx.cup(k, a, l, b)) \
                if k + l < n else {}
            da = cx.coboundary_matrix(k).matvec(a)
            db = cx.coboundary_matrix(l).matvec(b)
            rhs = cx.cup(k + 1, da, l, b)
            term = cx.cup(k, a, l + 1, db)
            sign = Fraction((-1) ** k)
            rhs = {
                i: rhs.get(i, Fraction(0)) + sign * term.get(i, Fraction(0))
                for i in set(rhs) | set(term)
            }
            rhs = {i: v for i, v in rhs.items() if v}
            assert lhs == rhs


def test_fundamental_class_dual_cochain_evaluates_to_one():
    t = corpus.torus()
    face, sign = next(iter(t.top.items()))
    dual = {t.face_index(2, face): Fraction(sign)}
    assert t.evaluate(dual) == 1


def test_cup_with_unit_is_identity():
    cx = corpus.torus()
    one = {i: Fraction(1) for i in range(cx.n_faces(0))}
    rng = random.Random(2)
    b = random_cochain(cx, 1, rng)
    assert cx.cup(0, one, 1, b) == b


def test_cup_beyond_top_degree_is_zero():
    cx = corpus.disk()
    a = {0: Fraction(1)}
    assert cx.cup(1, a, 2, {0: Fraction(1)}) == {}


# --- torus intersection form --------------------------------------------------


def torus_generators(t):
    """Pullbacks of the circle generator cochain along the two projections."""
    m = len(t.meta["fiber"].vertex_ids)
    def gen(direction):
        vals = {}
        for e in t.faces(1):
            (a, b) = e
            ua, wa = divmod(a, m)
            ub, wb = divmod(b, m)
            pa, pb = (ua, ub) if direction == "u" else (wa, wb)
            if (pa, pb) == (0, 1):
                vals[t.face_index(1, e)] = Fraction(1)
        return vals
    return gen("u"), gen("w")


def test_torus_intersection_form_unimodular():
    t = corpus.torus()
    au, aw = torus_generators(t)
    d1 = t.coboundary_matrix(1)
    assert d1.matvec(au) == {} and d1.matvec(aw) == {}
    uu = t.evaluate_cup(1, au, 1, au)
    uw = t.evaluate_cup(1, au, 1, aw)
    wu = t.evaluate_cup(1, aw, 1, au)
    ww = t.evaluate_cup(1, aw, 1, aw)
    assert uu == 0 and ww == 0
    assert uw == -wu and abs(uw) == 1


def test_pairing_on_cohomology_torus():
    t = corpus.torus()
    p = t.pairing_on_cohomology(1)
    assert p.left_dim == p.right_dim == 2
    assert p.nondegenerate()
    # graded antisymmetry on classes in odd degree
    for i in range(2):
        assert p.matrix[i, i] == 0


def test_pairing_disk_h0_h2rel():
    d = corpus.disk_fan()
    p = d.pairing_on_cohomology(0, relative_left=False)
    assert p.left_dim == 1 and p.right_dim == 1
    assert p.matrix[0, 0] != 0


@pytest.mark.parametrize("name", ALL)
def test_lefschetz_duality_nondegenerate(name):
    cx = build(name)
    n = cx.dimension
    absc = cx.cochain_complex()
    relc = cx.relative_complex()[0] if not cx.is_closed() else absc
    for k in range(n + 1):
        ha = absc.cohomology(k)[0]
        hr = relc.cohomology(n - k)[0]
        assert ha == hr
        p = cx.pairing_on_cohomology(n - k, relative_left=True)
        if ha:
            assert p.nondegenerate()


# --- relative complexes and the LES -------------------------------------------


def test_disk_relative_has_no_interior_edges():
    d = corpus.disk()
    relc, _, _ = d.relative_complex()
    assert relc.dim(1) == 0
    assert relc.dim(2) == 1


def test_les_disk_rel_boundary():
    d = corpus.disk_fan()
    relc, incl, restr = d.relative_complex()
    assert {k: relc.cohomology(k)[0] for k in (0, 1, 2)} == {0: 0, 1: 0, 2: 1}
    rep = les_of_pair(incl, restr)
    assert rep.exact


def test_les_interval_rel_endpoints():
    i = corpus.interval(2)
    relc, incl, restr = i.relative_complex()
    assert relc.cohomology(1)[0] == 1
    rep = les_of_pair(incl, restr)
    assert rep.exact


def test_les_cylinder_relative_h1():
    c = corpus.cylinder()
    relc, incl, restr = c.relative_complex()
    assert relc.cohomology(1)[0] == 1
    assert les_of_pair(incl, restr).exact


def test_les_closed_complex_trivial_boundary():
    t = corpus.torus()
    relc, incl, restr = t.relative_complex()
    assert relc.betti() == t.cochain_complex().betti()
    rep = les_of_pair(incl, restr)
    assert rep.exact
    for k in (0, 1):
        beta = connecting_map(incl, restr, k)
        assert beta.is_zero()


def test_connecting_map_disk():
    d = corpus.disk_fan()
    relc, incl, restr = d.relative_complex()
    beta0 = connecting_map(incl, restr, 0)
    assert beta0.is_zero()  # H^0(D) -> H^0(S^1) is onto
    beta1 = connecting_map(incl, restr, 1)
    assert beta1.shape == (1, 1) and beta1[0, 0] != 0  # iso of 1-dim spaces


@pytest.mark.parametrize("name", ["interval3", "disk_fan", "cylinder", "solid_torus"])
def test_les_exact_across_corpus(name):
    cx = build(name)
    relc, incl, restr = cx.relative_complex()
    assert les_of_pair(incl, restr).exact



CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def corpus_complexes():
    """Every corpus complex, and the subdivision of those of dim <= 2."""
    with open(os.path.join(CORPUS, "manifest.json")) as fh:
        names = list(json.load(fh)["complexes"])
    out = {n: load_complex(os.path.join(CORPUS, n + ".json")) for n in names}
    out.update({f"{n}_subdivided": corpus.subdivide(cx)
                for n, cx in list(out.items()) if cx.dimension <= 2})
    return out


def reference_relative(cx):
    """The relative complex built face by face: the boundary faces found by
    their vertex sets, each restriction entry set to 1 by hand.  Returns
    the interior faces, the relative differentials and the inclusion and
    restriction blocks per degree."""
    bc = cx.boundary_complex()
    n = cx.dimension
    interior, incl, rest, diffs = {}, {}, {}, {}
    for k in range(n + 1):
        bfaces = set()
        if bc.n_faces(0) and k <= bc.dimension:
            bfaces = {tuple(cx.vertex_position(v) for v in bc.face_vertices(f))
                      for f in bc.faces(k)}
        interior[k] = [f for f in cx.faces(k) if f not in bfaces]
        incl[k] = RatMatrix(cx.n_faces(k), len(interior[k]))
        for j, f in enumerate(interior[k]):
            incl[k][cx.face_index(k, f), j] = Fraction(1)
        rest[k] = RatMatrix(bc.n_faces(k) if bc.n_faces(0) else 0, cx.n_faces(k))
        for f in (bc.faces(k) if bc.n_faces(0) else []):
            parent = tuple(cx.vertex_position(v) for v in bc.face_vertices(f))
            rest[k][bc.face_index(k, f), cx.face_index(k, parent)] = Fraction(1)
    for k in range(n):
        d_cols = cx.coboundary_matrix(k).transpose().sparse_rows()
        idx_next = {cx.face_index(k + 1, f): i for i, f in enumerate(interior[k + 1])}
        diffs[k] = RatMatrix(len(interior[k + 1]), len(interior[k]))
        for j, f in enumerate(interior[k]):
            for i, v in d_cols[cx.face_index(k, f)].items():
                if i in idx_next:
                    diffs[k][idx_next[i], j] = v
    return interior, diffs, incl, rest


@pytest.mark.parametrize("name, cx", list(corpus_complexes().items()))
def test_restriction_matches_the_per_face_construction(name, cx):
    interior, diffs, incl, rest = reference_relative(cx)
    relc, inclusion, restriction = cx.relative_complex()
    for k in range(cx.dimension + 1):
        r = cx.restriction_matrix(k)
        assert r.shape == rest[k].shape
        # the entries in their storage order, which the pins of pi hash
        assert list(r.entries.items()) == list(rest[k].entries.items())
        assert cx.interior_faces(k) == interior[k]
        assert relc.dim(k) == len(interior[k])
        assert inclusion.block(k) == incl[k]
        assert restriction.block(k) is r
    for k in range(cx.dimension):
        assert relc.d(k) == diffs[k]


def test_restriction_carries_the_sign_of_the_vertex_map():
    # an edge of the interval read through the flip of its two vertices
    i1 = corpus.interval(1)
    flip = {0: 1, 1: 0}
    assert i1.restriction(i1, 1, flip).entries == {(0, 0): Fraction(-1)}
    assert i1.restriction(i1, 0, flip).entries == {(0, 1): Fraction(1), (1, 0): Fraction(1)}


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_hypothesis_leibniz_on_disk_fan(avals, bvals):
    cx = corpus.disk_fan()
    a = {i: Fraction(v) for i, v in enumerate(avals[:cx.n_faces(0)]) if v}
    b = {i: Fraction(v) for i, v in enumerate(bvals[:cx.n_faces(1)]) if v}
    lhs = cx.coboundary_matrix(1).matvec(cx.cup(0, a, 1, b))
    da = cx.coboundary_matrix(0).matvec(a)
    db = cx.coboundary_matrix(1).matvec(b)
    rhs = cx.cup(1, da, 1, b)
    term = cx.cup(0, a, 2, db)
    out = dict(rhs)
    for i, v in term.items():
        out[i] = out.get(i, Fraction(0)) + v
    assert lhs == {i: v for i, v in out.items() if v}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=21, max_size=21))
def test_hypothesis_stokes_on_cylinder(vals):
    cx = corpus.cylinder()
    b = {i: Fraction(v) for i, v in enumerate(vals[:cx.n_faces(1)]) if v}
    lhs = cx.evaluate(cx.coboundary_matrix(1).matvec(b))
    rhs = cx.boundary_evaluate(cx.restriction_matrix(1).matvec(b))
    assert lhs == rhs
