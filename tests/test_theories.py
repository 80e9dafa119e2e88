import hashlib
from fractions import Fraction

import pytest

from bvbfv import corpus
from bvbfv.complexes import GhostMismatch
from bvbfv.moduli import ReducedModel
from bvbfv.theories import (
    TheoryError,
    WrongDimension,
    _reindex_like,
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


@pytest.mark.parametrize("form,spaces,row,col,message", [
    ("Q", ("bulk", "bulk"), ("A", 0), ("B", 1),
     "Q block (B,1) -> (A,0) does not lower ghost by 1"),
    ("Q_bdry", ("bdry", "bdry"), ("A", 0), ("B", 1),
     "boundary Q block does not lower ghost by 1"),
    ("pi", ("bdry", "bulk"), ("A", 0), ("B", 1), "pi does not preserve ghost"),
    ("omega", ("bulk", "bulk"), ("A", 0), ("B", 0),
     "bulk pairing couples (A,0) with (B,0): ghost sum 2 != -1"),
    ("omega_bdry", ("bdry", "bdry"), ("A", 0), ("B", 0),
     "boundary pairing ghost sum 2 != 0"),
])
def test_ghost_mismatch_messages(form, spaces, row, col, message):
    # one entry of bf on the solid torus moved onto slots of the wrong
    # ghosts; the message names what the ghost lists caught
    t = build_abelian_bf(corpus.solid_torus())
    rows, cols = (getattr(t, name) for name in spaces)
    bad = getattr(t, form).copy()
    bad[rows.offset(*row), cols.offset(*col)] = 1
    setattr(t, form, bad)
    with pytest.raises(GhostMismatch) as err:
        check_ghost_grading(t)
    assert str(err.value) == message


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


def _boundary_as_lower_bulk(top, lower, key):
    return _reindex_like(lower.bulk, top.bdry, getattr(top, key))


@pytest.mark.parametrize("name,n", [("cylinder", 3), ("disk_fan", 4), ("interval", 1),
                                    ("solid_torus", 3), ("torus_times_interval", 3)])
def test_extension_chain_axiom(name, n):
    # the boundary half of a cup model is the bulk half of the same theory
    # on the boundary complex, up to fixed signs per degree
    cx = corpus.BUILDERS[name]()
    for kind in ("abelian_bf", "abelian_cs"):
        out = verify_extension_chain(kind, cx, n if kind == "abelian_bf" else 3)
        assert out["projectable"] and out["boundary_matches_lower_bulk"] and out["q_matches"]
    D = cx.dimension
    top = extend_to_stratum("abelian_bf", cx, n)
    low = extend_to_stratum("abelian_bf", cx.boundary_complex(), n)
    sigma = low.bulk.diag_sign(lambda sec, k, g: (-1) ** k if sec == "A" else (-1) ** D)
    b_rows = low.bulk.diag_sign(lambda sec, k, g: sec == "B")
    a_neg = low.bulk.diag_sign(lambda sec, k, g: -1 if sec == "A" else 1)
    # t_j = ((-1)^D + (-1)^j)/2 on the column A^(j-1)
    t_j = low.bulk.diag_sign(lambda sec, k, g: Fraction((-1) ** D + (-1) ** (k + 1), 2))
    assert _boundary_as_lower_bulk(top, low, "omega_bdry") == sigma * low.omega
    assert _boundary_as_lower_bulk(top, low, "alpha_bdry") == b_rows * low.omega
    assert _boundary_as_lower_bulk(top, low, "P_bdry") == a_neg * low.P
    assert _boundary_as_lower_bulk(top, low, "S_bdry_mat") == low.S_mat * t_j
    assert not low.omega.is_zero()
    top = extend_to_stratum("abelian_cs", cx, 3)
    low = extend_to_stratum("abelian_cs", cx.boundary_complex(), 3)
    assert _boundary_as_lower_bulk(top, low, "omega_bdry") == low.pair_bulk_mat


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
    sl = ghost_zero_slice(ReducedModel(build_abelian_cs(corpus.solid_torus())))
    assert sl["moduli_dim"] == 1  # H^1 of the solid torus


def test_gh0_slice_scalar_fields():
    sl = ghost_zero_slice(ReducedModel(build_scalar(corpus.interval(2))))
    assert set(s for (s, _) in sl["field_dims"]) == {"phi", "p", "p_flux"}
    assert sl["gauge_dim"] == 0


def test_gh0_slice_bf_torus():
    sl = ghost_zero_slice(ReducedModel(build_abelian_bf(corpus.torus())))
    # A-sector H^1 (dim 2) plus B-sector H^0 (dim 1)
    assert sl["moduli_dim"] == 3


def test_theory_from_config_variants():
    cx = corpus.circle()
    t = theory_from_config(cx, {"kind": "scalar", "mass": "1/2"})
    assert t.mass == Fraction(1, 2)
    t = theory_from_config(corpus.torus(), {"kind": "abelian_bf", "codim": 1, "n": 3})
    assert t.n == 3 and t.D == 2


@pytest.mark.parametrize("config", [
    {"kind": "abelian_bf", "mass": "1"},
    {"kind": "abelian_cs", "mass": "1/2"},
    {"kind": "electrodynamics", "mass": "2"},
    {"kind": "abelian_bf", "codim": 1, "mass": "1"},
    {"kind": "electrodynamics", "codim": 1, "mass": "1"},
], ids=["bf", "cs", "ed", "bf_codim_1", "ed_codim_1"])
def test_mass_without_a_mass_term_is_refused(config):
    # only the scalar reads a mass; any other theory must not drop one
    with pytest.raises(TheoryError, match="no mass term"):
        theory_from_config(corpus.disk(), config)


@pytest.mark.parametrize("kind", ["abelian_bf", "abelian_cs", "electrodynamics"])
def test_zero_mass_is_accepted(kind):
    cx = corpus.disk()
    t = theory_from_config(cx, {"kind": kind, "mass": "0"})
    assert t.Q == theory_from_config(cx, {"kind": kind}).Q



@pytest.mark.parametrize("config", [
    {"kind": "abelian_bf"},
    {"kind": "abelian_cs"},
    {"kind": "scalar"},
    {"kind": "electrodynamics"},
    {"kind": "abelian_bf", "codim": 1},
    {"kind": "abelian_cs", "codim": 1},
    {"kind": "electrodynamics", "codim": 1},
], ids=["bf", "cs", "scalar", "ed", "bf_codim_1", "cs_codim_1", "ed_codim_1"])
def test_theory_build_reads_only_the_restriction(config):
    # pi needs the restriction to the boundary only: a build constructs no
    # relative complex and no cochain complex of the boundary
    cx = corpus.solid_torus() if not config.get("codim") else corpus.disk_fan()
    t = theory_from_config(cx, config)
    assert not t.pi.is_zero()
    assert "relative_complex" not in cx._cache
    assert "cochain_complex" not in cx.boundary_complex()._cache
    assert any(key[0] == "restriction" for key in cx._cache if isinstance(key, tuple))


# --- the cone-model builder, pinned ---------------------------------------------

# sha256 of every slot and every matrix, entries in storage order, of the
# scalar (mass 0 and 1/2) and electrodynamics on each corpus complex they
# build on, as the separate scalar and electrodynamics builders produced them
PINNED_CONE_MODELS = {
    ('scalar', 'point'): "c5b3534567f505becf94af901cbaf5ed0a128ac4bf28608c1e8183fe9bc63098",
    ('scalar_half', 'point'): "b2bd31e62f18d4f8fa0ca55d75937832b5235f3abbe87723a061f9590914e65d",
    ('scalar', 'two_points'): "5f36564fbd715cc676a7af09d90f151d8d235502c584195df3afc8ce23a49c8c",
    ('scalar_half', 'two_points'): "ea645e5364cb399ac09aba9c89b405186d9077c0b12ab0ef92e1c39a3269ec17",
    ('scalar', 'interval'): "a95e9f2d23386580b1ccfe51eb12b7129c457ae26072d54fe62116b891a9a3fd",
    ('scalar_half', 'interval'): "f6238ce9c7adbde14523eac6ea33227ca34df756e584468fe53c2fceaecfaf99",
    ('scalar', 'interval3'): "c84fea8a8ef62e3653f645f9475cbb4184e4f77e75d24cdb3468111f08b4feda",
    ('scalar_half', 'interval3'): "c009c07493aaccc990abb1421a2b2e2a6a56c4d3fb57c15773698652c444a016",
    ('scalar', 'circle'): "d35b076d91f4c78793a51354d115c2ea4f26efd4231e408ec63966fba029d345",
    ('scalar_half', 'circle'): "d985895d03084cf291712c3890275dcc389606d33545ed105c5a08e72c5c6c25",
    ('scalar', 'disk'): "371e99fba24f1abf034345d30a9ab3edc570249407b32a1389f2c27f9c3d5358",
    ('scalar_half', 'disk'): "dc2a662599d1842fe67d76f930d80a9e8735ed742b5be481042f981e8462704f",
    ('ed', 'disk'): "6559752ead184420adafaf9b05567db102b01c792b55d5c2400090e57a1d7fdc",
    ('scalar', 'disk_fan'): "f4e37208d9d32c92f1a74c50bde16f5f9c77c25639ac5de305a7dadbe694e030",
    ('scalar_half', 'disk_fan'): "11b96295fd33ac57cb157a5abd0f9699cdda4827d11980c27d917d8aca15df74",
    ('ed', 'disk_fan'): "0d8a03a40d482993ee33987a2aff55d01dbb14b226837611b2bb869f0d20878a",
    ('scalar', 'sphere'): "a03bdb9b2b5bc5bb9691351f64b0c2b79a142339d702b72981c2bebc61af4ff8",
    ('scalar_half', 'sphere'): "5ced287547efa8337065b8bf2cb7a88ee3cf2c9de0e54afa067b53dc6d6a3e4d",
    ('ed', 'sphere'): "6c9a8fdb6d9bc1e6ba76370c614d1a2d933a2543fd7c7431a8f83f0209a56fef",
    ('scalar', 'cylinder'): "53780510e310620ae9e17dd688a9e8b272959246956ae2c646ac684e02fab25b",
    ('scalar_half', 'cylinder'): "acf831e31f77d4a2c06f03403cba3ee7174cb49d1cad5e653f23026f5d67cde4",
    ('ed', 'cylinder'): "e9e706be28e2a1accf274a55340ae5ff51b0f52fe900ff29a4454eba63008933",
    ('scalar', 'annulus'): "2ee8e2aafe98dabc3863d112a77792cf1800de6db4788d630d2ae2b31d161151",
    ('scalar_half', 'annulus'): "ea50cc3645b954176bdc195258879e7eda04b926fcd5df71014caa1c7b4618c9",
    ('ed', 'annulus'): "fcd273b295854e7ac0cf60361b615566e3456af20853108f07b0a1ece806ee9d",
    ('scalar', 'torus'): "20455eb81e1effa09b1f0c2d6b2408c4937ccccbb4b52fca4e5b95ba77881578",
    ('scalar_half', 'torus'): "b0e64000fd72a669474394087db444dd9bf6f0b5f6db9242836e93913d8d7954",
    ('ed', 'torus'): "dc6b1915eafc56f8e004bd6ad592e3d28550117eb16e87edf0e9efa5bf8f157a",
    ('scalar', 'solid_torus'): "430537e2ec8bbbd8bc6030f45ac48fb30ca920474c4a519e3ca28dbc561a5319",
    ('scalar_half', 'solid_torus'): "1c4b382ba82f83be4debc6c6c642f6ad8d892dfaac093f52b4d0ddd0ba888fdf",
    ('ed', 'solid_torus'): "a994a37ae2c056b5939e7f212b79b20ae705dd0a89c1272e35c96ab11ccaffa9",
    ('scalar', 'torus_times_interval'): "259953b78d95f1ee5a22fabeca75eb8b58d6ead95d1e5a1cb78a98a30d942219",
    ('scalar_half', 'torus_times_interval'): "451d3c32211a44b2cb1db4c5c6a0abe8c6a4bdd4d1e38cb58f2da22c8203903b",
    ('ed', 'torus_times_interval'): "512acff40d2ac6d32ea97262f9b71c33e30671575fd95edd80838850b6329648",
}

CONE_MATRICES = ("Q", "Q_bdry", "pi", "omega", "omega_bdry", "alpha_bdry", "S_mat",
                 "S_bdry_mat", "P", "P_bdry", "pair_bulk_mat")

CONE_BUILDERS = {
    "scalar": build_scalar,
    "scalar_half": lambda cx: build_scalar(cx, "1/2"),
    "ed": build_electrodynamics,
}


def _fingerprint(t, order=list):
    data = [t.name, t.kind, t.n, t.D, t.model, t.mass, t.adj_beta_sign,
            t.adj_psi_sign, t.bulk.slots, t.bdry.slots]
    for key in CONE_MATRICES:
        m = getattr(t, key)
        data.append((key, None) if m is None
                    else (key, m.rows, m.cols, order(m.entries.items())))
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("theory,name", sorted(PINNED_CONE_MODELS))
def test_cone_model_pinned(theory, name):
    t = CONE_BUILDERS[theory](corpus.BUILDERS[name]())
    assert _fingerprint(t) == PINNED_CONE_MODELS[(theory, name)]


def test_cone_model_pins_every_buildable_pair():
    built = set()
    for name, make in corpus.BUILDERS.items():
        for theory, build in CONE_BUILDERS.items():
            try:
                build(make())
            except WrongDimension:
                continue
            built.add((theory, name))
    assert built == set(PINNED_CONE_MODELS)


# --- the cup-model builder, pinned ----------------------------------------------

# sha256 of every slot and every matrix, entries in key order, of bf at n = D
# and n = D + 1, cs and the electrodynamics stratum at n = D + 1 on each
# corpus complex they build on, as the three separate cup builders produced
# them.  Key order, not storage order: the order in which a builder writes
# its blocks changes no result, because `_echelon` picks pivots by value and
# row index.
PINNED_CUP_MODELS = {
    ('bf_codim1', 'point'): "6f893f1786bc2282a53cb5d60bca829aa654357818ae0ac9dc0d17a9274883a8",
    ('cs', 'point'): "9933d95559efa120d7b4d52183467e73c1ca909083aebf144fff34dab268ed4d",
    ('bf_codim1', 'two_points'): "1c090e9649f757c818879df0613c01c992bf21624487b84f514e83485526fd7c",
    ('cs', 'two_points'): "d854e53a8101897c0994c9f338adc2bc4ef7b22a055c1c6ae42e874f870a3c97",
    ('bf', 'interval'): "1209ada98240d1d491f1e149777d4a5128ed0c3b9a035800f0c5b2d59e021c4c",
    ('bf_codim1', 'interval'): "2adf8969b1bba654cebd872eef15409286997d4a82a30b86e484dc2110f2b8a6",
    ('cs', 'interval'): "640bd2dd7406accd8c34d688ec35112714ccaa518d7758d80ea99371eed3dc71",
    ('ed_stratum', 'interval'): "c5c6e6ab51b48bbce0309af81b604804950f9751f0aa74786e71325428741f55",
    ('bf', 'interval3'): "edf0e8b950b99881852e752d11df06d74f799bc7f8264182c027a3b1ecfa48e8",
    ('bf_codim1', 'interval3'): "e5b42522d257c4579a59265443176fe5dbdda050010f5bdefaa8e9a8b14a61e8",
    ('cs', 'interval3'): "873f19630ad9ed7d85d4cccd7a9ef702156df4ec3298f1406ad61b6fd758f335",
    ('ed_stratum', 'interval3'): "965c5ccb396e665518687a416ec22392594eacf93f068fdbcf99744821f777da",
    ('bf', 'circle'): "4bd1d1c3fed2b6f0f47420b2fc7a9fdb0e89eec7c776249366d8afd835e4dd54",
    ('bf_codim1', 'circle'): "beac0daeb71f0c1b70d88af1b439080d9975df5f2fd5d0d9f1ea2d5ab9aa2513",
    ('cs', 'circle'): "251306f5754a17721900ef7aea7a019a99f3a4bdc226f11d30946666f1de30a8",
    ('ed_stratum', 'circle'): "85a63b8b16f207b1faf5ce1ef8fb283d5099d5f2358a69618dc0cc1bd221d858",
    ('bf', 'disk'): "f008034768f1e8408cafdeb5372ffdef34547bd3c46fe182df91c29f1b0fd50b",
    ('bf_codim1', 'disk'): "6edd13bb36b5734d9e1568364336b9aea9656eee0633c7eebb45343e059de712",
    ('cs', 'disk'): "681650e9a435fab85f4c8abb99c1fa3b83364c1327ad875f4a50fcb44f6408ea",
    ('ed_stratum', 'disk'): "070dc8f8048786bc7f76dcb444d205892a21a3ed159198740ee9e564dd497708",
    ('bf', 'disk_fan'): "496fba96e3596983be05ddf509990d9551acbc37cca610dc58dd8465a660789f",
    ('bf_codim1', 'disk_fan'): "71ad9096df63512e8714e99a53004055ca75a5f8bcaea351d1c467d8bcbbb695",
    ('cs', 'disk_fan'): "0e88e81d1606a609b3c99675b322c77ca13cd8429833bcc5d8dcf1ffb14dc6f5",
    ('ed_stratum', 'disk_fan'): "24d8ea76a2b00ed5bb7a9683cf30ba319bff84ff9c72349475100160fadfc81f",
    ('bf', 'sphere'): "729737719cbe8382d5fa591b0c308e70794756f04973cda08c484961952a8bba",
    ('bf_codim1', 'sphere'): "b5201af879579e2b9ea9cf8d40b72e800ee918f470c7f072bf06ed2f53d43c01",
    ('cs', 'sphere'): "4fa8bfa87a56ae1cd8bca1bf9cc20027e53097c9a78f3182c257338890ee9ca3",
    ('ed_stratum', 'sphere'): "6fe7f1b20c9cdcc108646494ebc3eb637e583e9b5012894acbba56dc04d0a719",
    ('bf', 'cylinder'): "8358914c6f8465d89b9c7a471022273c044536711fb287982b0e51353498e281",
    ('bf_codim1', 'cylinder'): "88b9123480d5378a0dd59007c023a7ae479dd4e1dea7463e1472a52d7d6913e4",
    ('cs', 'cylinder'): "6111b65b460b3a8762f84d3bf1d6c0f28c03935a22cd716e6027ba721ac11b16",
    ('ed_stratum', 'cylinder'): "297de0d6adb8338f11e108c15f4bd2c26849e84c1076f5c30787b56c347c18e8",
    ('bf', 'annulus'): "20eda2f3381a15209840461d003d134fb47406a65d85361651cbc5a5d25b3f4a",
    ('bf_codim1', 'annulus'): "4aad85956cb55f7f7c88d711a182d3ba900e3044f4fa72578691a2482d1bf17a",
    ('cs', 'annulus'): "90a59b0f2d8ad80731055fc18a121bf53b11408a0f9301b8e787f9c8b4fef618",
    ('ed_stratum', 'annulus'): "6af1fe2d14e2b8a2e2f3d7ce3c2510702ce77685e42805590f03b9363e8d8202",
    ('bf', 'torus'): "336534b103ab8547ffbda844d22a41b0ed4fdfe070b7bf6b18c79cbe55794e0a",
    ('bf_codim1', 'torus'): "e203b55410fb85ba1de79c9ff85865cc06c77c1ba86acd2f7cec549056e7c8fc",
    ('cs', 'torus'): "b70948fa9f2b1eb5ee7525a3f9b18e0db232222dce6b31d88ae4327bfeb365c9",
    ('ed_stratum', 'torus'): "8a2abd6cf3a6a9b0b754d8a7b85a4ecc4a37d2b74e8f61b2ec51fdb6d39143ef",
    ('bf', 'solid_torus'): "864e71086fb723c041741b8f60e8d7d508b415ff143599e9e11fc15019aed2e9",
    ('bf_codim1', 'solid_torus'): "647ea82b784c27643b09acaef4b2b3e315bbc4f0d129416a703948f3bed77009",
    ('cs', 'solid_torus'): "d28c12e1e7e05a83c98177c781eb101654258597fc654322fd3d2f785c5df7de",
    ('ed_stratum', 'solid_torus'): "404d10d13ff6168016778b20fa476c5b9fe9170b28634ec0a631870952024e37",
    ('bf', 'torus_times_interval'): "367b76e88cf60065f13a70f3ee460f468a76651a0f29c4d29c3fe6a3acbf05e2",
    ('bf_codim1', 'torus_times_interval'): "78492a9d7b74e52ec828e1d37d8837887c2b2421ad417c045db119749cd1d815",
    ('cs', 'torus_times_interval'): "229282bb9aa31342c6c7467ef6af1b9369ead6aaf3bdf9b603d807969aaa34c7",
    ('ed_stratum', 'torus_times_interval'): "4992400ae1b23b6bd03083e00e3882811552271e3e5325d46bf0c4585aee1f8b",
}

CUP_BUILDERS = {
    "bf": build_abelian_bf,
    "bf_codim1": lambda cx: build_abelian_bf(cx, cx.dimension + 1),
    "cs": build_abelian_cs,
    "ed_stratum": lambda cx: build_ed_stratum(cx, cx.dimension + 1),
}


@pytest.mark.parametrize("theory,name", sorted(PINNED_CUP_MODELS))
def test_cup_model_pinned(theory, name):
    t = CUP_BUILDERS[theory](corpus.BUILDERS[name]())
    assert _fingerprint(t, sorted) == PINNED_CUP_MODELS[(theory, name)]


def test_cup_model_pins_every_buildable_pair():
    built = set()
    for name, make in corpus.BUILDERS.items():
        for theory, build in CUP_BUILDERS.items():
            try:
                build(make())
            except WrongDimension:
                continue
            built.add((theory, name))
    assert built == set(PINNED_CUP_MODELS)
