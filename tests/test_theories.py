from fractions import Fraction

import pytest

from bvbfv import corpus
from bvbfv.complexes import GhostMismatch
from bvbfv.theories import (
    WrongDimension,
    build_abelian_bf,
    build_abelian_cs,
    build_ed_stratum,
    build_electrodynamics,
    build_scalar,
    check_ghost_grading,
    extend_to_stratum,
    ghost_zero_slice,
    theory_from_config,
    verify_cme,
    verify_extension_chain,
)


CUP_CASES = [
    ("interval", lambda: build_abelian_bf(corpus.interval())),
    ("cylinder", lambda: build_abelian_bf(corpus.cylinder())),
    ("disk", lambda: build_abelian_bf(corpus.disk())),
    ("disk_fan", lambda: build_abelian_bf(corpus.disk_fan())),
    ("torus", lambda: build_abelian_bf(corpus.torus())),
    ("solid_torus_bf", lambda: build_abelian_bf(corpus.solid_torus())),
    ("bf_codim2_disk", lambda: build_abelian_bf(corpus.disk_fan(), 4)),
    ("ed_stratum_annulus", lambda: build_ed_stratum(corpus.annulus(), 3)),
]

COTANGENT_CASES = [
    ("scalar_interval", lambda: build_scalar(corpus.interval(2))),
    ("scalar_circle", lambda: build_scalar(corpus.circle())),
    ("scalar_circle_massive", lambda: build_scalar(corpus.circle(), 1)),
    ("scalar_disk_halfmass", lambda: build_scalar(corpus.disk_fan(), "1/2")),
    ("ed_torus", lambda: build_electrodynamics(corpus.torus())),
    ("ed_cylinder", lambda: build_electrodynamics(corpus.cylinder())),
    ("ed_sphere", lambda: build_electrodynamics(corpus.sphere())),
]


@pytest.mark.parametrize("name,build", CUP_CASES + COTANGENT_CASES)
def test_master_equation_package_exact(name, build):
    t = build()
    rep = verify_cme(t)
    assert rep.ok, f"{name}: failing identities {rep.failing()}"


@pytest.mark.parametrize("name,build", CUP_CASES + COTANGENT_CASES)
def test_ghost_grading(name, build):
    t = build()
    gg = check_ghost_grading(t)
    codim = t.n - t.D
    assert gg["bulk_pairing_ghost"] == -1 + codim
    assert gg["boundary_pairing_ghost"] == codim


def test_cylinder_boundary_one_form_is_nonzero():
    t = build_abelian_bf(corpus.cylinder())
    assert not t.alpha_bdry.is_zero()
    assert not (t.pi.transpose() * t.alpha_bdry * t.pi).is_zero()


def test_bf_bulk_sector_dims_duplicated():
    cx = corpus.cylinder()
    t = build_abelian_bf(cx)
    for k in range(3):
        assert t.bulk.dim("A", k) == cx.n_faces(k)
        assert t.bulk.dim("B", k) == cx.n_faces(k)


def test_bf_interval_boundary_pairing_block():
    t = build_abelian_bf(corpus.interval())
    # boundary = two points; omega couples A@0 with B@0: 2x2 blocks
    assert t.bdry.dim("A", 0) == 2 and t.bdry.dim("B", 0) == 2
    assert t.omega_bdry.rank() == 4


def test_cs_wrong_dimension():
    with pytest.raises(WrongDimension):
        build_abelian_cs(corpus.torus(), ambient_n=2)
    with pytest.raises(WrongDimension):
        build_electrodynamics(corpus.interval())


def test_scalar_negative_mass_rejected():
    with pytest.raises(Exception):
        build_scalar(corpus.circle(), -1)


def test_misshifted_differential_raises_ghost_mismatch():
    t = build_abelian_bf(corpus.disk())
    bad = t.Q.copy()
    bad[t.bulk.offset("A", 0), t.bulk.offset("B", 1)] = 1
    t.Q = bad
    with pytest.raises(GhostMismatch):
        check_ghost_grading(t)


@pytest.mark.parametrize("form", ["omega", "omega_bdry"])
def test_pairing_of_wrong_ghosts_raises_ghost_mismatch(form):
    # bf on the solid torus pairs A^k with B^(3-k) in the bulk (ghost sum
    # -1) and A^k with B^(2-k) on the boundary (ghost sum 0); an entry
    # coupling A^0 with B^0 sums to ghost 2 in both
    t = build_abelian_bf(corpus.solid_torus())
    space = t.bulk if form == "omega" else t.bdry
    bad = getattr(t, form).copy()
    bad[space.offset("A", 0), space.offset("B", 0)] = 1
    setattr(t, form, bad)
    with pytest.raises(GhostMismatch):
        check_ghost_grading(t)


def test_strict_mode_names_offending_block():
    from bvbfv.theories import SignConventionMismatch

    t = build_abelian_bf(corpus.cylinder())
    t.S_mat = t.S_mat.scale(2)  # deliberately break the calibration
    with pytest.raises(SignConventionMismatch) as exc:
        verify_cme(t, strict=True)
    assert "block" in str(exc.value)


# --- extensions --------------------------------------------------------------


def test_bf_extension_ghost_of_pairing():
    # codim 1 on the boundary torus of a 3-dimensional theory: gh(omega) = 0
    t = extend_to_stratum("abelian_bf", corpus.torus(), 3)
    assert check_ghost_grading(t)["bulk_pairing_ghost"] == 0
    rep = verify_cme(t)
    assert rep.ok


def test_bf_maximal_extension_point():
    t = extend_to_stratum("abelian_bf", corpus.point(), 4)
    dims = {(s["sector"], s["degree"]): (s["dim"], s["ghost"]) for s in t.bulk.slots}
    assert dims == {("A", 0): (1, 1), ("B", 0): (1, 2)}


def test_extension_chain_axiom():
    out = verify_extension_chain("abelian_bf", corpus.cylinder(), 3)
    assert out["projectable"] and out["boundary_matches_lower_bulk"] and out["q_matches"]
    out = verify_extension_chain("abelian_cs", corpus.solid_torus(), 3)
    assert out["projectable"] and out["boundary_matches_lower_bulk"] and out["q_matches"]


def test_ed_codim2_fields_and_trivial_boundary_data():
    # n = 3, stratum = annulus, boundary = two circles
    t = build_ed_stratum(corpus.annulus(), 3)
    assert t.bdry.dim("B", 1) == 6 and t.bdry.dim("c", 0) == 6
    assert t.S_bdry_mat.is_zero()       # S on the codim-2 boundary vanishes
    assert t.Q_bdry.is_zero()           # Q on the codim-2 boundary vanishes
    assert verify_cme(t).ok


def test_ed_codim2_on_disk():
    t = build_ed_stratum(corpus.disk_fan(), 3)
    assert verify_cme(t).ok
    assert t.bdry.dim("B", 1) == 3 and t.bdry.dim("c", 0) == 3


def test_ed_codim2_ambient_two_on_interval():
    # ambient n = 2: the codimension-2 data live on the two endpoints
    t = build_ed_stratum(corpus.interval(2), 2)
    assert verify_cme(t).ok
    assert t.bdry.dim("B", 0) == 2 and t.bdry.dim("c", 0) == 2
    assert t.S_bdry_mat.is_zero() and t.Q_bdry.is_zero()


# --- ghost-zero slices --------------------------------------------------------


def test_gh0_slice_cs_solid_torus():
    sl = ghost_zero_slice(build_abelian_cs(corpus.solid_torus()))
    assert sl["moduli_dim"] == 1  # H^1 of the solid torus


def test_gh0_slice_scalar_fields():
    sl = ghost_zero_slice(build_scalar(corpus.interval(2)))
    assert set(s for (s, _) in sl["field_dims"]) == {"phi", "p", "p_flux"}
    assert sl["gauge_dim"] == 0


def test_gh0_slice_bf_torus():
    sl = ghost_zero_slice(build_abelian_bf(corpus.torus()))
    # A-sector H^1 (dim 2) plus B-sector H^0 (dim 1)
    assert sl["moduli_dim"] == 3


def test_theory_from_config_variants():
    cx = corpus.circle()
    t = theory_from_config(cx, {"kind": "scalar", "mass": "1/2"})
    assert t.mass == Fraction(1, 2)
    t = theory_from_config(corpus.torus(), {"kind": "abelian_bf", "codim": 1, "n": 3})
    assert t.n == 3 and t.D == 2
