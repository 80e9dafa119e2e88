import pytest

from bvbfv import corpus
from bvbfv.gluing import (
    GluingSpec,
    InterfaceMismatch,
    OrientationClash,
    compose_morphisms,
    fiber_product_check,
    glue,
    glue_moduli,
    mayer_vietoris,
)
from bvbfv.moduli import ReducedModel
from bvbfv.theories import build_abelian_bf, build_abelian_cs, build_scalar


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
    out = fiber_product_check(tn, tl, tr, spec)
    assert out["match"]


def test_fiber_product_cylinders_bf():
    cyl = corpus.cylinder(3, 1)
    g = cyl.meta["grid"]
    spec = GluingSpec(cyl, cyl, [(g[(i, 1)], g[(i, 0)]) for i in range(3)])
    cx = glue(spec)
    out = fiber_product_check(ReducedModel(build_abelian_bf(cx)),
                              ReducedModel(build_abelian_bf(cyl)),
                              ReducedModel(build_abelian_bf(cyl)), spec)
    assert out["match"]


def test_fiber_product_empty_interface_is_direct_sum():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    out = fiber_product_check(tn, tl, tl, spec)
    assert out["match"]
    assert out["el_glued_dim"] == 2 * len(
        [1 for _ in range(1)]) * (out["fiber_product_dim"] // 2) or out["match"]


# --- glued moduli -----------------------------------------------------------------


def test_glue_moduli_s3():
    spec, left, right = spec_s3()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    out = glue_moduli(tl, tr, spec, tn)
    assert out["dims_match"] and out["isomorphism"] and out["pairings_intertwined"]
    assert out["direct_dims"] == {1: 1, -2: 1}


def test_glue_moduli_s2xs1():
    spec, left, right = spec_s2xs1()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    out = glue_moduli(tl, tr, spec, tn)
    assert out["dims_match"] and out["isomorphism"] and out["pairings_intertwined"]
    assert out["direct_dims"] == {1: 1, 0: 1, -1: 1, -2: 1}


def test_glue_moduli_empty_interface_product():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    out = glue_moduli(tl, tl, spec, tn)
    assert out["dims_match"] and out["isomorphism"]
    # product of the two pieces: dims add
    assert all(v == 2 for v in out["direct_dims"].values())


# --- Mayer-Vietoris ---------------------------------------------------------------


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_mayer_vietoris_solid_tori(make):
    spec, left, right = make()
    cx = glue(spec)
    tl = ReducedModel(build_abelian_cs(left))
    tr = ReducedModel(build_abelian_cs(right))
    tn = ReducedModel(build_abelian_cs(cx))
    mv = mayer_vietoris(tn, tl, tr, spec)
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
        reps[g] = quotient(kernel_basis(q), column_span(cols, len(idx)))[0].basis
    return reps


@pytest.mark.parametrize("make", [spec_s3, spec_s2xs1])
def test_mayer_vietoris_pieces_are_the_engine_quotients(make):
    # absolute pieces: ker Q / Q(everything) = the bulk cohomology; the
    # glued partially reduced piece: ker Q / Q(ker pi) = M_symp
    from bvbfv.linalg import Subspace, kernel_basis
    from bvbfv.moduli import symp_moduli

    spec, left, right = make()
    tl, tr, tn = (build_abelian_cs(c) for c in (left, right, glue(spec)))
    pieces = mayer_vietoris(*(ReducedModel(t) for t in (tn, tl, tr)), spec)["pieces"]
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
    mv = mayer_vietoris(tn, tl, tl, spec)
    assert mv["absolute"].exact and mv["partially_reduced"].exact


def test_mayer_vietoris_empty_interface_degenerates():
    c1 = corpus.circle()
    spec = GluingSpec(c1, c1, [])
    cx = glue(spec)
    tl = ReducedModel(build_abelian_bf(c1))
    tn = ReducedModel(build_abelian_bf(cx))
    mv = mayer_vietoris(tn, tl, tl, spec)
    assert mv["absolute"].exact and mv["partially_reduced"].exact


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
