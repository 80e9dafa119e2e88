from collections import Counter
from fractions import Fraction

import pytest

from bvbfv import corpus
from bvbfv.gluing import (
    Gluing,
    GluingError,
    GluingSpec,
    InterfaceMismatch,
    OrientationClash,
    _fiber_coords,
    _fiber_product,
    compose_morphisms,
    fiber_product_check,
    glue,
    glue_moduli,
    mayer_vietoris,
)
from bvbfv.linalg import RatMatrix, _unread, kernel_basis
from bvbfv.moduli import ReducedModel
from bvbfv.simplicial import OrientedComplex, _perm_sign
from vectors import exactness_by_subspaces, vec_add, vec_scale
from bvbfv.theories import (
    build_abelian_bf,
    build_abelian_cs,
    build_ed_stratum,
    build_electrodynamics,
    build_scalar,
    set_block,
)


def solid_torus_boundary_vertex():
    st = corpus.solid_torus()
    grid = st.meta["grid"]

    def bv(i, s):
        return grid[(i % 3, s % 3)]

    return st, bv


def spec_s3():
    st, bv = solid_torus_boundary_vertex()
    pairs = [(bv(i, s), bv(s, i)) for i in range(3) for s in range(3)]
    return GluingSpec(st, st, pairs), st, st


def spec_s2xs1():
    st, bv = solid_torus_boundary_vertex()
    right = corpus.with_reversed_orientation(corpus.solid_torus())
    pairs = [(bv(i, s), bv(i, s)) for i in range(3) for s in range(3)]
    return GluingSpec(st, right, pairs), st, right


def spec_intervals():
    i2 = corpus.interval(2)
    return GluingSpec(i2, i2, [(2, 0)])


def spec_cylinders():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    return GluingSpec(cyl, cyl, [(g[(i, 1)], g[(i, 0)]) for i in range(3)])


def spec_cap():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    return GluingSpec(corpus.disk_fan(), cyl, [(i, g[(i, 0)]) for i in range(3)])


def spec_circle():
    i2 = corpus.interval(2)
    return GluingSpec(i2, i2, [(2, 0), (0, 2)])


def spec_torus():
    cyl = corpus.cylinder(3, 2)
    g = cyl.meta["grid"]
    return GluingSpec(cyl, cyl, [(g[(i, 2)], g[(i, 0)]) for i in range(3)] +
                      [(g[(i, 0)], g[(i, 2)]) for i in range(3)])


def subdivided(spec):
    """spec carried through corpus.subdivide: the barycentre of each face
    of the interface is paired with the barycentre of its partner.  The
    barycentre of a face has the face's number among all faces, counted by
    dimension and then in face order."""
    def face_ids(cx):
        faces = [f for k in range(cx.dimension + 1) for f in cx.faces(k)]
        return {f: i for i, f in enumerate(faces)}

    left, right, iface = spec.left, spec.right, spec.interface
    lid, rid = face_ids(left), face_ids(right)
    r_of_l = dict(spec.pairs)
    pairs = []
    for k in range(iface.dimension + 1):
        for f in iface.faces(k):
            verts = iface.face_vertices(f)
            pairs.append((lid[tuple(sorted(left.vertex_position(v) for v in verts))],
                          rid[tuple(sorted(right.vertex_position(r_of_l[v])
                                           for v in verts))]))
    return GluingSpec(corpus.subdivide(left), corpus.subdivide(right), pairs)


def gluing(spec, build):
    return Gluing(spec, *(ReducedModel(build(cx))
                          for cx in (glue(spec), spec.left, spec.right)))


# --- simplicial gluing ---------------------------------------------------------


def test_glue_intervals_at_a_point():
    i1 = corpus.interval(1)
    cx = glue(GluingSpec(i1, i1, [(1, 0)]))
    assert cx.cochain_complex().betti() == {0: 1, 1: 0}
    assert cx.boundary_complex().n_faces(0) == 2


def test_glue_cylinders_end_to_end_gives_cylinder():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    pairs = [(g[(i, 1)], g[(i, 0)]) for i in range(3)]
    cx = glue(GluingSpec(cyl, cyl, pairs))
    assert cx.cochain_complex().betti() == {0: 1, 1: 1, 2: 0}


def test_glue_cylinders_both_ends_gives_torus():
    cyl = corpus.cylinder(3, 2)
    g = cyl.meta["grid"]
    pairs = [(g[(i, 2)], g[(i, 0)]) for i in range(3)] + \
        [(g[(i, 0)], g[(i, 2)]) for i in range(3)]
    cx = glue(GluingSpec(cyl, cyl, pairs))
    assert cx.cochain_complex().betti() == {0: 1, 1: 2, 2: 1}
    assert cx.is_closed()


def test_glue_solid_tori_meridian_to_longitude_is_sphere():
    spec, _, _ = spec_s3()
    cx = glue(spec)
    assert cx.cochain_complex().betti() == {0: 1, 1: 0, 2: 0, 3: 1}


def test_glue_solid_tori_meridian_to_meridian_is_s2xs1():
    spec, _, _ = spec_s2xs1()
    cx = glue(spec)
    assert cx.cochain_complex().betti() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_orientation_clash_detected():
    st, bv = solid_torus_boundary_vertex()
    # meridian -> meridian against the same-oriented copy cannot cancel
    pairs = [(bv(i, s), bv(i, s)) for i in range(3) for s in range(3)]
    with pytest.raises(OrientationClash):
        glue(GluingSpec(st, st, pairs))


def test_interface_mismatch_detected():
    st, bv = solid_torus_boundary_vertex()
    pairs = [(bv(i, s), bv((2 * i) % 3, s)) for i in range(3) for s in range(3)]
    # v -> 2v mod 3 does not map the staircase triangulation to itself
    with pytest.raises(InterfaceMismatch):
        GluingSpec(st, st, pairs)


def test_interface_not_boundary_rejected():
    st, bv = solid_torus_boundary_vertex()
    center = st.meta["grid"][(3, 0)]  # cone point: interior vertex
    with pytest.raises(InterfaceMismatch):
        GluingSpec(st, st, [(center, center)])


# --- fiber products --------------------------------------------------------------


def test_fiber_product_intervals_scalar():
    i1 = corpus.interval(2)
    spec = GluingSpec(i1, i1, [(2, 0)])
    cx = glue(spec)
    tl = ReducedModel(build_scalar(i1))
    tr = ReducedModel(build_scalar(i1))
    tn = ReducedModel(build_scalar(cx))
    out = fiber_product_check(Gluing(spec, tn, tl, tr))
    assert out["match"]


def test_fiber_product_cylinders_bf():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    spec = GluingSpec(cyl, cyl, [(g[(i, 1)], g[(i, 0)]) for i in range(3)])
    cx = glue(spec)
    out = fiber_product_check(Gluing(spec, ReducedModel(build_abelian_bf(cx)),
                                     ReducedModel(build_abelian_bf(cyl)),
                                     ReducedModel(build_abelian_bf(cyl))))
    assert out["match"]


def test_fiber_product_empty_interface_is_direct_sum():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    out = fiber_product_check(Gluing(spec, tn, tl, tl))
    assert out["match"]
    assert out["el_glued_dim"] == out["fiber_product_dim"] == 2 * kernel_basis(tl.t.Q).dim


def flat_fiber_product_check(gl):
    """fiber_product_check decided in the flat bulk spaces: the kernel of the
    flat Q (of its ghost-zero columns on a cotangent model) of each piece,
    and one kernel of [rho_l L | -rho_r R] over all of them."""
    def el(model):
        t = model.t
        cols = t.bulk.ghost_indices(0) if t.model == "cotangent" \
            else list(range(t.bulk.total))
        ker = kernel_basis(t.Q.submatrix(list(range(t.Q.rows)), cols))
        return [{cols[i]: v for i, v in b.items()} for b in ker.basis]

    rho_l, rho_r = gl.rho
    cols = [rho_l.matvec(v) for v in el(gl.left)] + \
        [{i: -x for i, x in rho_r.matvec(v).items()} for v in el(gl.right)]
    el_n = len(el(gl.glued))
    fp_dim = kernel_basis(RatMatrix.from_columns(cols, rho_l.rows)).dim
    return {"el_glued_dim": el_n, "fiber_product_dim": fp_dim, "match": el_n == fp_dim}


def spec_empty_interface():
    c1 = corpus.circle()
    return GluingSpec(c1, c1, [])


def fiber_product_cases():
    """bf, cs, scalar and ed on both Heegaard splittings, bf and cs on the
    gluings with an outer boundary and on the closed gluings, each as given
    and subdivided, the scalar on two intervals, and bf and cs on two
    circles glued along nothing."""
    builds = {"bf": build_abelian_bf, "cs": build_abelian_cs, "scalar": build_scalar,
              "ed": build_electrodynamics}
    out = {}
    for make in (spec_s3, spec_s2xs1):
        for theory, build in builds.items():
            out[f"{theory}-{make.__name__}"] = \
                lambda m=make, b=build: gluing(m()[0], b)
    for make in (spec_intervals, spec_cylinders, spec_cap, spec_circle, spec_torus):
        for theory in ("bf", "cs"):
            for carry in ("plain", "subdivided"):
                out[f"{theory}-{make.__name__}-{carry}"] = \
                    lambda m=make, b=builds[theory], c=carry: \
                    gluing(subdivided(m()) if c == "subdivided" else m(), b)
    out["scalar-spec_intervals"] = lambda: gluing(spec_intervals(), build_scalar)
    for theory in ("bf", "cs"):
        out[f"{theory}-spec_empty_interface"] = \
            lambda b=builds[theory]: gluing(spec_empty_interface(), b)
    return out


FIBER_PRODUCT_CASES = fiber_product_cases()


@pytest.mark.parametrize("case", FIBER_PRODUCT_CASES)
def test_fiber_product_matches_the_flat_route(case):
    gl = FIBER_PRODUCT_CASES[case]()
    assert fiber_product_check(gl) == flat_fiber_product_check(gl)


# --- glued moduli -----------------------------------------------------------------


def test_glue_moduli_s3():
    spec, left, right = spec_s3()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    out = glue_moduli(Gluing(spec, tn, tl, tr))
    assert out["dims_match"] and out["isomorphism"] and out["pairings_intertwined"]
    assert out["direct_dims"] == {1: 1, -2: 1}


def test_glue_moduli_s2xs1():
    spec, left, right = spec_s2xs1()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    out = glue_moduli(Gluing(spec, tn, tl, tr))
    assert out["dims_match"] and out["isomorphism"] and out["pairings_intertwined"]
    assert out["direct_dims"] == {1: 1, 0: 1, -1: 1, -2: 1}


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_gluing_class_spaces_match_the_solve_route(make):
    # the pieces of the three models and of both Mayer-Vietoris sequences
    from test_moduli import assert_reps_match_the_solve_route

    gl = gluing(make()[0], build_abelian_cs)
    mv = mayer_vietoris(gl)
    models = (gl.glued, gl.left, gl.right)
    ghosts = sorted({g for m in models for g in m.ghosts})
    pieces = [p for m in models for p in (m.bulk, m.bdry, m.vert, m.msymp)]
    pieces += [p for kind in ("absolute", "partially_reduced") for p in mv["pieces"][kind]]
    assert_reps_match_the_solve_route(pieces, ghosts)


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_glue_moduli_solves_no_column(make, monkeypatch):
    # the class spaces, the quotient by the distribution and the fiber
    # product M-tilde read their coordinates off the columns: no solve at all
    from bvbfv import linalg

    calls = []
    orig = linalg.Subspace._solve

    def recording(self, v):
        calls.append(v)
        return orig(self, v)

    gl = gluing(make()[0], build_abelian_cs)
    monkeypatch.setattr(linalg.Subspace, "_solve", recording)
    out = glue_moduli(gl)
    assert out["dims_match"] and out["isomorphism"]
    assert calls == []


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_fiber_coords_match_the_solve_route(make):
    # per ghost: combinations of M-tilde's basis get the coordinates that
    # Subspace.coords solves for, and each unit vector is refused exactly
    # when it leaves M-tilde
    gl = gluing(make()[0], build_abelian_cs)
    ml, mr = gl.left.msymp, gl.right.msymp
    rho_l, rho_r = gl.rho
    for g in gl.left.ghosts:
        system, mt = _fiber_product(rho_l, ml.flat(g, ml.reps(g)), rho_r, mr.flat(g, mr.reps(g)))
        inside = [{}, *mt.basis]
        inside += [vec_add(vec_scale(b, k + 1), inside[k]) for k, b in enumerate(mt.basis)]
        got = _fiber_coords(system, mt, RatMatrix.from_columns(inside, system.cols))
        assert got.columns() == [mt.coords(v) for v in inside]
        for j in range(system.cols):
            unit = {j: Fraction(1)}
            got = _fiber_coords(system, mt, RatMatrix.from_columns([unit], system.cols))
            assert (None if got is None else got.columns()) == \
                (None if mt.coords(unit) is None else [mt.coords(unit)])


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_beta_image_off_the_fiber_product_raises(make, monkeypatch):
    from bvbfv import gluing as gluing_module

    orig = gluing_module._beta_block
    patched = []

    def off(model, section, rows, g):
        # one entry of the first interface field's image moved along a left
        # class that restricts to a nonzero interface field, so the pair no
        # longer agrees on the interface
        value = orig(model, section, rows, g)
        if not patched and model is gl.left and rows:
            msymp = model.msymp
            on_iface = gl.rho[0] * msymp.flat(g - 1, msymp.reps(g - 1))
            seen = sorted({k for _, k in on_iface.ints})
            if seen:
                value = value + RatMatrix.of_ints(value.rows, value.cols, {(seen[0], 0): 1})
                patched.append(rows[0])
        return value

    gl = gluing(make()[0], build_abelian_cs)
    monkeypatch.setattr(gluing_module, "_beta_block", off)
    with pytest.raises(GluingError, match="beta-tilde image leaves the fiber product"):
        glue_moduli(gl)
    assert patched


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_glued_rep_off_the_fiber_product_is_no_isomorphism(make):
    # doubling the left restriction moves the restricted glued
    # representatives off M-tilde, which the isomorphism verdict must see
    gl = gluing(make()[0], build_abelian_cs)
    (res_l, eps_l), right = gl.res
    gl.res = ((res_l.scale(2), eps_l), right)
    out = glue_moduli(gl)
    assert out["dims_match"] and not out["isomorphism"]


def test_glue_moduli_empty_interface_product():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    out = glue_moduli(Gluing(spec, tn, tl, tl))
    assert out["dims_match"] and out["isomorphism"]
    # product of the two pieces: dims add
    assert all(v == 2 for v in out["direct_dims"].values())


@pytest.mark.parametrize("build", [build_scalar, build_electrodynamics])
def test_refused_theory_names_the_cup_model_requirement(build):
    # every cup model glues (the bf and ed strata too), so the error names
    # the requirement and the refused theory, not a list of kinds
    gl = gluing(spec_s3()[0], build)
    with pytest.raises(GluingError) as err:
        glue_moduli(gl)
    t = gl.glued.t
    msg = str(err.value)
    assert "bf or cs" not in msg
    assert "need a cup model" in msg
    assert f"{t.kind} is a {t.model} model" in msg


# --- Mayer-Vietoris ---------------------------------------------------------------


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_mayer_vietoris_solid_tori(make):
    spec, left, right = make()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    mv = mayer_vietoris(Gluing(spec, tn, tl, tr))
    assert mv["absolute"].exact
    assert mv["partially_reduced"].exact


def _flat_quotient(t, vert):
    """Representatives of ker Q / Q(V) per ghost, from a flat basis of V:
    the homogeneous vectors of V at ghost g+1 pushed through Q."""
    from bvbfv.linalg import column_span, kernel_basis, quotient

    reps = {}
    for g in t.bulk.ghosts():
        idx, up = t.bulk.ghost_indices(g), t.bulk.ghost_indices(g + 1)
        q = t.Q.submatrix(t.bulk.ghost_indices(g - 1), idx)
        q_up = t.Q.submatrix(idx, up)
        pos = {f: i for i, f in enumerate(up)}
        cols = [q_up.matvec({pos[i]: v for i, v in b.items()})
                for b in vert.basis if b and b.keys() <= pos.keys()]
        reps[g] = quotient(kernel_basis(q), column_span(cols, len(idx)))[0].matrix()
    return reps


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_mayer_vietoris_pieces_are_the_engine_quotients(make):
    # absolute pieces: ker Q / Q(everything) = the bulk cohomology; the
    # glued partially reduced piece: ker Q / Q(ker pi) = M_symp
    from bvbfv.linalg import Subspace, kernel_basis
    from bvbfv.moduli import symp_moduli

    spec, left, right = make()
    tl, tr, tn = (build_abelian_cs(c) for c in (left, right, glue(spec)))
    pieces = mayer_vietoris(Gluing(spec, *(ReducedModel(t) for t in (tn, tl, tr))))["pieces"]
    for t, piece in zip((tn, tl, tr), pieces["absolute"]):
        flat = _flat_quotient(t, Subspace.full(t.bulk.total))
        model = ReducedModel(t)
        for g, reps in flat.items():
            assert piece.reps(g) == reps == model.bulk.reps(g)
    flat = _flat_quotient(tn, kernel_basis(tn.pi))
    sm = symp_moduli(ReducedModel(tn))
    for g, reps in flat.items():
        assert pieces["partially_reduced"][0].reps(g) == reps == sm["reps"][g]


def test_mayer_vietoris_cylinders_to_torus_bf():
    cyl = corpus.cylinder(3, 2)
    g = cyl.meta["grid"]
    pairs = [(g[(i, 2)], g[(i, 0)]) for i in range(3)] + \
        [(g[(i, 0)], g[(i, 2)]) for i in range(3)]
    spec = GluingSpec(cyl, cyl, pairs)
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(cyl))
    tn = ReducedModel(build_abelian_bf(cx))
    mv = mayer_vietoris(Gluing(spec, tn, tl, tl))
    assert mv["absolute"].exact and mv["partially_reduced"].exact


def test_mayer_vietoris_empty_interface_degenerates():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    mv = mayer_vietoris(Gluing(spec, tn, tl, tl))
    assert mv["absolute"].exact and mv["partially_reduced"].exact


@pytest.mark.parametrize("carry", [lambda spec: spec, subdivided],
                         ids=["plain", "subdivided"])
@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs], ids=["bf", "cs"])
@pytest.mark.parametrize("make", [spec_intervals, spec_cylinders, spec_cap])
def test_gluing_with_outer_boundary(make, build, carry):
    # the partially reduced sequence is left out: it is not exact on these
    # gluings (see ROADMAP item 6)
    gl = gluing(carry(make()), build)
    assert not gl.glued.t.cx.is_closed()
    assert fiber_product_check(gl)["match"]
    gm = glue_moduli(gl)
    assert gm["dims_match"] and gm["isomorphism"] and gm["pairings_intertwined"]
    assert mayer_vietoris(gl)["absolute"].exact


def spec_square():
    # two triangles glued along an edge: the interface has two corners
    return GluingSpec(OrientedComplex(2, [0, 1, 2], [[0, 1, 2]], [1]),
                      OrientedComplex(2, [0, 1, 2], [[0, 1, 2]], [-1]), [(0, 0), (1, 1)])


def spec_fan_corner():
    return GluingSpec(corpus.disk_fan(), corpus.with_reversed_orientation(corpus.disk_fan()),
                      [(0, 0), (1, 1)])


def spec_tetrahedra():
    return GluingSpec(OrientedComplex(3, [0, 1, 2, 3], [[0, 1, 2, 3]], [1]),
                      OrientedComplex(3, [0, 1, 2, 3], [[0, 1, 2, 3]], [-1]),
                      [(0, 0), (1, 1), (2, 2)])


@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs], ids=["bf", "cs"])
@pytest.mark.parametrize("make", [spec_square, spec_fan_corner, spec_tetrahedra])
def test_corner_gluing_moduli(make, build):
    # the distribution divided out is beta-tilde of the relative interface
    # cochains C(Sigma, dSigma): a corner stays on the outer boundary of the
    # glued complex, so its fields are not gauge.  The partially reduced
    # sequence is left out (see ROADMAP item 2).
    gl = gluing(make(), build)
    assert not gl.spec.interface.is_closed()
    assert fiber_product_check(gl)["match"]
    gm = glue_moduli(gl)
    assert gm["intrinsic_dims"] == gm["direct_dims"]
    assert gm["dims_match"] and gm["isomorphism"] and gm["pairings_intertwined"]
    assert mayer_vietoris(gl)["absolute"].exact


def test_relative_interface_rows_are_the_interior_faces():
    # the square's interface is one edge whose two vertices are corners, so
    # its relative cochains are the edge fields; a closed interface keeps all
    gl = gluing(spec_square(), build_abelian_bf)
    fields = gl.fields
    slots = {g: [fields.slot_of(r)[0] for r in rows] for g, rows in gl._relative_rows.items()}
    assert all(s["ghost"] == g for g, ss in slots.items() for s in ss)
    assert [s["degree"] for ss in slots.values() for s in ss] == \
        [1] * sum(s["dim"] for s in fields.slots if s["degree"] == 1)
    closed = gluing(spec_torus(), build_abelian_bf)
    assert sorted(r for rows in closed._relative_rows.values() for r in rows) == \
        list(range(closed.fields.total))


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1], ids=["spec_s3", "spec_s2xs1"])
def test_right_interface_restriction_carries_the_vertex_map_sign(make):
    # each interface face reads the right piece's face it lands on, with
    # the sign of the permutation sorting its image under the vertex map
    spec = make()[0]
    iface, right = spec.interface, spec.right
    vmap = dict(spec.pairs)
    for k in range(iface.dimension + 1):
        want = {}
        for f in iface.faces(k):
            pos = [right.vertex_position(vmap[v]) for v in iface.face_vertices(f)]
            want[(iface.face_index(k, f), right.face_index(k, tuple(sorted(pos))))] = \
                Fraction(_perm_sign(pos))
        m = right.restriction(iface, k, vmap)
        assert m.shape == (iface.n_faces(k), right.n_faces(k))
        assert m.entries == want


# the Heegaard splittings and the gluings with an outer boundary, as given
# and subdivided, for bf and cs
OUTER_CASES = [case for case in FIBER_PRODUCT_CASES
               if case.split("-")[0] in ("bf", "cs") and case.split("-")[1] in (
                   "spec_s3", "spec_s2xs1", "spec_intervals", "spec_cylinders", "spec_cap")]


def boundary_faces(t):
    """(flat boundary row, slot, vertex ids) of every boundary field
    coordinate of t."""
    bc = t.cx.boundary_complex()
    for slot in t.bdry.slots:
        off = t.bdry.offset(slot["sector"], slot["degree"])
        for i, f in enumerate(bc.faces(slot["degree"])):
            yield off + i, slot, bc.face_vertices(f)


def interface_vertices(spec):
    """The identified vertices of the left and of the right piece."""
    return {l for l, _ in spec.pairs}, {r for _, r in spec.pairs}


def outer_sides(gl):
    """(model, restriction of its boundary fields to the interface, flat
    rows of pi on the outer boundary) of each piece.  The outer rows are
    found by vertex sets: a boundary face is outer when one of its vertices
    is not identified."""
    for model, verts, r in zip((gl.left, gl.right), interface_vertices(gl.spec),
                               gl.to_interface):
        yield model, r, [row for row, _, v in boundary_faces(model.t) if not set(v) <= verts]


@pytest.mark.parametrize("case", OUTER_CASES)
def test_outer_piece_matches_the_eliminated_route(case, monkeypatch):
    # the bulk fields that vanish on the outer boundary are the unit vectors
    # of the columns that the outer rows of pi do not read; the old route
    # eliminated the outer rows of pi
    from bvbfv.gluing import _outer_piece

    gl = FIBER_PRODUCT_CASES[case]()
    for model, r, outer in outer_sides(gl):
        taken = []
        modulo_q = model.modulo_q
        monkeypatch.setattr(model, "modulo_q",
                            lambda name, K: taken.append(K) or modulo_q(name, K))
        _outer_piece(model, r)
        (got,) = taken
        want = {g: kernel_basis(model.t.pi.submatrix(outer, idx)).matrix()
                for g, idx in model.bulk.index.items() if idx}
        assert got == want


@pytest.mark.parametrize("make,build", [(spec_cylinders, build_abelian_bf),
                                        (lambda: spec_s3()[0], build_abelian_cs)],
                         ids=["bf-cylinders", "cs-s3"])
def test_vertical_pieces_eliminate_no_restriction(make, build, monkeypatch):
    # ker pi, its lift, the vertical complex, beta and the outer pieces are
    # read off the columns of pi: no kernel of a restriction block and no
    # left inverse is eliminated
    import sys

    from bvbfv import linalg
    from bvbfv.gluing import _outer_piece

    gl = gluing(make(), build)
    models = (gl.glued, gl.left, gl.right)
    restrictions = [pi for m in models for pi in m.pi_blocks.values()]
    for model, _, outer in outer_sides(gl):
        restrictions += [model.t.pi.submatrix(rows, idx)
                         for g, idx in model.bulk.index.items()
                         for rows in (outer, [r for r in model.bdry.index[g] if r in outer])]
    calls = []

    def recorded(name, orig):
        def recording(*args):
            calls.append((name, args[0]))
            return orig(*args)
        return recording

    for fname in ("kernel_basis", "_left_inverse"):
        orig = getattr(linalg, fname)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("bvbfv") and getattr(mod, fname, None) is orig:
                monkeypatch.setattr(mod, fname, recorded(fname, orig))
    for model in models:
        model.K, model.vert
        for g in model.ghosts:
            model.lift(g)
            model.beta(g)
    for model, r, _ in outer_sides(gl):
        _outer_piece(model, r)
    assert not [name for name, _ in calls if name == "_left_inverse"]
    # an empty block equals every 0-row matrix, so it is matched by identity
    assert not [m.shape for name, m in calls if name == "kernel_basis" and
                any(m is r or (r.rows and m == r) for r in restrictions)]


@pytest.mark.parametrize("case", FIBER_PRODUCT_CASES)
def test_outer_rows_are_the_boundary_fields_off_the_interface(case):
    # for every theory, the boundary rows that to_interface does not read
    # are those on a face with a vertex that is not identified
    gl = FIBER_PRODUCT_CASES[case]()
    for _, r, outer in outer_sides(gl):
        assert _unread(r, AssertionError("not a projection")) == outer


def cotangent_interface(t, spec, side):
    """The interface rows of pi of a cotangent theory found by vertex sets:
    the boundary-field rows on faces whose vertices are all identified, in
    the order of their faces' left labels, the right piece's flux rows
    negated."""
    verts = interface_vertices(spec)[side == "right"]
    to_left = (lambda v: v) if side == "left" else spec.l_of_r.__getitem__
    lkey = spec.left.vertex_position
    flux = t.meta.get("bdry_flux_sectors", set())
    rows = {}
    for row, slot, vs in boundary_faces(t):
        if not set(vs) <= verts:
            continue
        pos = [lkey(to_left(v)) for v in vs]
        sgn = _perm_sign(pos)
        if side == "right" and slot["sector"] in flux:
            sgn = -sgn
        rows[(slot["sector"], slot["degree"], tuple(sorted(pos)))] = (row, sgn)
    pi_rows = t.pi.sparse_rows()
    return RatMatrix.from_rows(
        [{j: sgn * v for j, v in pi_rows[row].items()}
         for row, sgn in (rows[key] for key in sorted(rows, key=str))],
        t.bulk.total)


def row_pairs(rho_l, rho_r):
    """The multiset of (left row, right row) pairs of the two restrictions."""
    def rows(m):
        return [tuple(sorted(r.items())) for r in m.sparse_rows()]
    return Counter(zip(rows(rho_l), rows(rho_r)))


@pytest.mark.parametrize("case", [case for case in FIBER_PRODUCT_CASES
                                  if case.split("-")[0] in ("scalar", "ed")])
def test_cotangent_rho_matches_the_vertex_set_route(case):
    # the same pairs of left and right interface rows, in another order
    gl = FIBER_PRODUCT_CASES[case]()
    rho_l, rho_r = gl.rho
    want_l, want_r = (cotangent_interface(m.t, gl.spec, side)
                      for m, side in ((gl.left, "left"), (gl.right, "right")))
    assert rho_l.shape == want_l.shape and rho_r.shape == want_r.shape
    assert row_pairs(rho_l, rho_r) == row_pairs(want_l, want_r)


def interface_differential(gl, monkeypatch):
    """The interface differential that mayer_vietoris takes the cohomology
    of, and the sequences."""
    from bvbfv import gluing as gluing_module

    taken = []
    orig = gluing_module._ghost_piece

    def recording(name, m, idx):
        if name == "iface":
            taken.append(m)
        return orig(name, m, idx)

    monkeypatch.setattr(gluing_module, "_ghost_piece", recording)
    mv = mayer_vietoris(gl)
    (qw,) = taken
    return qw, mv


def sector_keyed_differential(gl):
    """d of the interface from each slot of the interface fields to the
    slot of the same sector one degree up."""
    fields, iface = gl.fields, gl.spec.interface
    qw = RatMatrix(fields.total, fields.total)
    for slot in fields.slots:
        sec, k = slot["sector"], slot["degree"]
        if fields.has(sec, k + 1):
            set_block(qw, fields, (sec, k + 1), fields, (sec, k), iface.coboundary_matrix(k))
    return qw


def every_spec():
    """Every gluing spec above, and those of dimension at most 2
    subdivided."""
    out = {"spec_s3": lambda: spec_s3()[0], "spec_s2xs1": lambda: spec_s2xs1()[0],
           "spec_tetrahedra": spec_tetrahedra}
    for make in (spec_intervals, spec_cylinders, spec_cap, spec_circle, spec_torus,
                 spec_empty_interface, spec_square, spec_fan_corner):
        out[make.__name__] = make
        out[f"{make.__name__}-subdivided"] = lambda m=make: subdivided(m())
    return out


EVERY_SPEC = every_spec()


@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs], ids=["bf", "cs"])
@pytest.mark.parametrize("spec", EVERY_SPEC)
def test_interface_differential_matches_the_sector_keyed_one(spec, build, monkeypatch):
    # rho_l Q rho_l^T is d of the interface within each sector of bf and
    # cs, entry for entry in storage order
    gl = gluing(EVERY_SPEC[spec](), build)
    qw, _ = interface_differential(gl, monkeypatch)
    want = sector_keyed_differential(gl)
    assert qw.shape == want.shape
    assert list(qw.entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_ed_stratum_interface_differential_is_d_from_c_to_a(make, monkeypatch):
    # no sector name of the ed stratum repeats across degrees: its
    # interface differential d: c -> A is read off Q, and with it both
    # Mayer-Vietoris sequences are exact
    gl = gluing(make()[0], lambda cx: build_ed_stratum(cx, cx.dimension + 1))
    fields, iface = gl.fields, gl.spec.interface
    want = RatMatrix(fields.total, fields.total)
    set_block(want, fields, ("A", 1), fields, ("c", 0), iface.coboundary_matrix(0))
    qw, mv = interface_differential(gl, monkeypatch)
    assert [(s["sector"], s["degree"]) for s in fields.slots] == [("c", 0), ("A", 1), ("B", 2)]
    assert qw == want
    assert mv["absolute"].exact and mv["partially_reduced"].exact


def _glued_dims_and_verdicts(gl):
    gm = glue_moduli(gl)
    mv = mayer_vietoris(gl)
    kinds = ("absolute", "partially_reduced")
    dims = {"intrinsic": gm["intrinsic_dims"], "direct": gm["direct_dims"],
            **{kind: mv[kind].nodes for kind in kinds}}
    verdicts = [fiber_product_check(gl)["match"], gm["dims_match"], gm["isomorphism"],
                gm["pairings_intertwined"], *(mv[kind].exact for kind in kinds)]
    return dims, verdicts


@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs], ids=["bf", "cs"])
@pytest.mark.parametrize("make", [spec_circle, spec_torus])
def test_closed_gluing_invariant_under_subdivision(make, build):
    spec = make()
    fine = subdivided(spec)
    assert fine.left.n_faces(0) > spec.left.n_faces(0)
    dims, verdicts = _glued_dims_and_verdicts(gluing(spec, build))
    fine_dims, fine_verdicts = _glued_dims_and_verdicts(gluing(fine, build))
    assert glue(fine).is_closed()
    assert fine_dims == dims
    assert all(verdicts) and all(fine_verdicts)


# the specs whose partially reduced sequence is not exact (ROADMAP item 2):
# the gluings with an outer boundary and the corner gluings
NOT_PARTIALLY_REDUCED_EXACT = ("spec_intervals", "spec_cylinders", "spec_cap",
                               "spec_tetrahedra", "spec_square", "spec_fan_corner")


@pytest.mark.parametrize("build", [build_abelian_bf, build_abelian_cs,
                                   lambda cx: build_ed_stratum(cx, cx.dimension + 1)],
                         ids=["bf", "cs", "ed-stratum"])
@pytest.mark.parametrize("spec", EVERY_SPEC)
def test_mayer_vietoris_verdicts_match_the_subspace_route(spec, build):
    # exactness is decided by ranks; the route it replaced compared Im and
    # ker as subspaces.  Both sequences of every gluing, including those
    # that fail today, which must still fail
    mv = mayer_vietoris(gluing(EVERY_SPEC[spec](), build))
    for kind in ("absolute", "partially_reduced"):
        assert mv[kind].verdicts == exactness_by_subspaces(mv[kind]), kind
    assert mv["absolute"].exact
    assert mv["partially_reduced"].exact == \
        (spec.removesuffix("-subdivided") not in NOT_PARTIALLY_REDUCED_EXACT)


def test_mayer_vietoris_rejects_an_interface_row_of_two_faces():
    gl = gluing(spec_cylinders(), build_abelian_bf)
    rho_l, rho_r = gl.rho
    bad = rho_l.copy()
    (_, j), = (key for key in bad.entries if key[0] == 0)
    bad[0, (j + 1) % bad.cols] = 1
    gl.rho = (bad, rho_r)
    with pytest.raises(GluingError, match="not a single face"):
        mayer_vietoris(gl)


# --- morphism composition -----------------------------------------------------------


def test_compose_cylinder_morphisms():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    spec = GluingSpec(cyl, cyl, [(g[(i, 1)], g[(i, 0)]) for i in range(3)])
    out = compose_morphisms(build_abelian_bf(cyl), build_abelian_bf(cyl),
                            spec, build_abelian_bf)
    assert out["action_additive"]
    assert out["evolution_lagrangian"]
    assert out["moduli"]["dims_match"] and out["moduli"]["isomorphism"]
    assert out["glued_complex"].cochain_complex().betti() == {0: 1, 1: 1, 2: 0}


def test_compose_cap_with_cylinder_gives_disk_morphism():
    # cap = fan disk glued to the inward-oriented cylinder end
    cap = corpus.disk_fan()
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    pairs = [(i, g[(i, 0)]) for i in range(3)]
    spec = GluingSpec(cap, cyl, pairs)
    out = compose_morphisms(build_abelian_bf(cap), build_abelian_bf(cyl),
                            spec, build_abelian_bf)
    assert out["action_additive"] and out["evolution_lagrangian"]
    assert out["glued_complex"].cochain_complex().betti() == {0: 1, 1: 0, 2: 0}


def test_triple_gluing_associative_dims():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]

    def compose_pair(left_cx, right_cx, left_end, right_start):
        spec = GluingSpec(left_cx, right_cx,
                          [(left_end[i], right_start[i]) for i in range(3)])
        return glue(spec)

    endA = [g[(i, 0)] for i in range(3)]
    endB = [g[(i, 1)] for i in range(3)]
    ab = compose_pair(cyl, cyl, endB, endA)
    # ends of the glued cylinder in glued ids
    lmap = ab.meta["left_map"]
    rmap = ab.meta["right_map"]
    ab_endA = [lmap[v] for v in endA]
    ab_endB = [rmap[v] for v in endB]
    left_first = compose_pair(ab, cyl, ab_endB, endA)
    bc = compose_pair(cyl, cyl, endB, endA)
    bc_endA = [bc.meta["left_map"][v] for v in endA]
    right_first = compose_pair(cyl, bc, endB, bc_endA)
    t1 = build_abelian_bf(left_first)
    t2 = build_abelian_bf(right_first)
    from bvbfv.moduli import q_reduce

    assert q_reduce(ReducedModel(t1))["dims"] == q_reduce(ReducedModel(t2))["dims"]
    assert left_first.cochain_complex().betti() == right_first.cochain_complex().betti()


def test_composed_cylinder_keeps_evolution_relation_dims():
    from bvbfv.moduli import evolution_relation

    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    spec = GluingSpec(cyl, cyl, [(g[(i, 1)], g[(i, 0)]) for i in range(3)])
    t1 = build_abelian_bf(cyl)
    out = compose_morphisms(t1, build_abelian_bf(cyl), spec, build_abelian_bf)
    ev_single = evolution_relation(ReducedModel(t1))
    ev_comp = evolution_relation(ReducedModel(out["glued_theory"]))
    assert ev_comp["reduced_dims_total"] == ev_single["reduced_dims_total"]


# --- eliminations shared within one glue op -----------------------------------


@pytest.mark.parametrize("spec", ["glue_solid_tori_meridian_to_longitude.json",
                                  "glue_solid_tori_meridian_to_meridian.json"])
def test_glue_op_eliminates_each_piece_block_once(spec, monkeypatch, tmp_path):
    # the glued complex's cochain differential and the glued Q, and the
    # left and right pieces (solid_torus against itself or against
    # solid_torus_reversed), meet equal blocks; one op eliminates each once
    import os

    from bvbfv import cli
    from test_moduli import assert_each_block_eliminated_once, piece_eliminations

    seen = piece_eliminations(monkeypatch)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = cli.main(["glue", os.path.join(root, "corpus", spec), "--theory", "cs",
                     "--format", "structured", "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert_each_block_eliminated_once(seen)


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_glue_phases_leave_shared_results_as_computed(make):
    from bvbfv.complexes import shared_eliminations
    from test_moduli import assert_memo_as_computed

    with shared_eliminations():
        gl = gluing(make()[0], build_abelian_cs)
        fiber_product_check(gl)
        glue_moduli(gl)
        mayer_vietoris(gl)
        assert_memo_as_computed()


def pairings_by_pairs(gl):
    """A test-side copy of the pairing check as one pairing per pair of
    glued representatives, each restricted to the pieces on its own."""
    (res_l, eps_l), (res_r, eps_r) = gl.res
    msymp = gl.glued.msymp
    t, tl, tr = gl.glued.t, gl.left.t, gl.right.t
    for g in sorted(set(gl.left.ghosts) | set(gl.right.ghosts)):
        gp = gl.glued.pair_ghost() - g
        for xf in msymp.flat(g, msymp.reps(g)).columns():
            for yf in msymp.flat(gp, msymp.reps(gp)).columns():
                if t.pair_bulk(xf, yf) != \
                        eps_l * tl.pair_bulk(res_l.matvec(xf), res_l.matvec(yf)) + \
                        eps_r * tr.pair_bulk(res_r.matvec(xf), res_r.matvec(yf)):
                    return False
    return True


@pytest.mark.parametrize("flip", [False, True], ids=["as-glued", "left-sign-flipped"])
@pytest.mark.parametrize("spec,build", [
    (lambda: spec_s3()[0], build_abelian_cs),
    (lambda: spec_s2xs1()[0], build_abelian_cs),
    (lambda: spec_s3()[0], lambda cx: build_ed_stratum(cx, cx.dimension + 1)),
    (spec_cylinders, build_abelian_bf)], ids=["cs-s3", "cs-s2xs1", "ed-stratum-s3", "bf-cylinders"])
def test_pairing_blocks_match_the_pairwise_check(spec, build, flip):
    # glue_moduli compares the pairing blocks of the restricted
    # representatives; the verdict is the per-pair one, and a wrong
    # orientation factor on the left piece breaks both
    gl = gluing(spec(), build)
    if flip:
        (res_l, eps_l), right = gl.res
        gl.res = ((res_l, -eps_l), right)
    expected = pairings_by_pairs(gl)
    assert glue_moduli(gl)["pairings_intertwined"] == expected
    assert expected is not flip
