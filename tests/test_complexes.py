import pytest

from bvbfv import corpus
from bvbfv.complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    ExactSequenceReport,
    NotShortExact,
    _GradedPiece,
    les_of_pair,
)
from bvbfv.linalg import RatMatrix, SubspaceNotContained, _kernel_quotient, kernel_basis
from vectors import exactness_by_subspaces


def test_point_complex_cohomology():
    cc = CochainComplex({0: 1}, {})
    assert cc.cohomology(0)[0] == 1


def test_d_squared_checked():
    d0 = RatMatrix.from_rows([[1], [1]])
    d1 = RatMatrix.from_rows([[1, 0]])
    with pytest.raises(ComplexError):
        CochainComplex({0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_chain_map_commutation_checked():
    cx = corpus.circle().cochain_complex()
    bad = ChainMap.__new__(ChainMap)
    blocks = {0: RatMatrix.identity(3), 1: RatMatrix.from_rows(
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]])}
    with pytest.raises(ComplexError):
        ChainMap(cx, cx, blocks)


def test_les_requires_short_exactness():
    cx = corpus.disk_fan()
    relc, incl, restr = cx.relative_complex()
    broken = {k: incl.block(k).scale(1) for k in range(3)}
    broken[1] = RatMatrix.zero(cx.n_faces(1), relc.dim(1))
    bad = ChainMap(relc, cx.cochain_complex(), broken, check=False)
    with pytest.raises(NotShortExact):
        les_of_pair(bad, restr)


def test_euler_characteristic_every_corpus_complex():
    for name, build in corpus.BUILDERS.items():
        cc = build().cochain_complex()
        betti = cc.betti()
        assert cc.euler_characteristic() == sum(
            (-1) ** k * b for k, b in betti.items()
        ), name


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_alt_cohomology_matches_the_image_basis_route(name):
    # the alt representatives complement the columns of the differential
    # into each degree; the complement depends only on their span, so it is
    # the one against an eliminated image basis
    from bvbfv.linalg import Subspace, image_basis, quotient

    cx = corpus.BUILDERS[name]()
    relc, _, _ = cx.relative_complex()
    for cc in (cx.cochain_complex(), cx.boundary_complex().cochain_complex(), relc):
        for k in cc.degrees():
            ker = cc.piece.kernel(k)
            alt = Subspace(ker.ambient_dim, ker.basis[::-1])
            want = quotient(alt, image_basis(cc.d(k - 1)))[0].matrix() \
                if cc.piece.reps(k).cols else cc.piece.reps(k)
            assert cc.cohomology(k, "alt")[1] == want


@pytest.mark.parametrize("b,verdicts", [
    # Q^1 -a-> Q^2 -b-> Q^1 -> 0 with b a = 0 and rank a + rank b = 2
    ([[0, 1]], [True, True]),
    # b a != 0 although rank a = 2 - rank b: fails by the composite alone
    ([[1, 0]], [False, True]),
    # b a = 0 but rank a < 2 - rank b, and b is not onto: fails by ranks
    ([[0, 0]], [False, False]),
], ids=["exact", "nonzero-composite", "rank-deficit"])
def test_exactness_by_ranks_matches_the_subspace_route(b, verdicts):
    seq = ExactSequenceReport(
        [("x", 1), ("y", 2), ("z", 1), ("w", 0)],
        [RatMatrix.from_rows([[1], [0]], 1), RatMatrix.from_rows(b, 2), RatMatrix(0, 1)])
    assert seq.verdicts == exactness_by_subspaces(seq) == verdicts


@pytest.mark.parametrize("q1,closed", [([[0, 1]], True), ([[1, 0]], False)],
                         ids=["closed", "not-closed"])
def test_a_piece_clears_only_when_its_differential_squares_to_zero(q1, closed, monkeypatch):
    # q0: Q^2 -> Q^2 and q1: Q^2 -> Q^1.  ker q1 is held when ker q0 is
    # asked; clearing q0 to its rows at the free column of ker q1 keeps its
    # row space only when q1 q0 = 0 (here it would lose row 0, and with it
    # the kernel), so the piece must not clear otherwise
    from bvbfv import complexes

    asked = []
    kernel = complexes.kernel_basis

    def recording(q, rows=None):
        asked.append(rows)
        return kernel(q, rows)

    monkeypatch.setattr(complexes, "kernel_basis", recording)
    q0, q1 = RatMatrix.from_rows([[1, 0], [0, 0]], 2), RatMatrix.from_rows(q1, 2)
    piece = _GradedPiece.of_differential("p", {0: 2, 1: 2, 2: 1}, {0: q0, 1: q1}, 1)
    piece.kernel(1)
    assert piece.kernel(0).matrix() == kernel_basis(q0).matrix()
    assert asked == [None, [0] if closed else None]
    if closed:
        comp, coords = _kernel_quotient(q1, kernel_basis(q1), q0)
        assert (piece.reps(1), piece._coords[1]) == (comp.matrix(), coords)
    else:
        with pytest.raises(SubspaceNotContained) as want:
            _kernel_quotient(q1, kernel_basis(q1), q0)
        with pytest.raises(SubspaceNotContained) as got:
            piece.reps(1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("modulo", [False, True], ids=["own-differential", "modulo"])
def test_a_piece_picks_its_representatives_in_fill_order(modulo):
    # ker q1 has the basis k0 = e0 + e1, k1 = e2, k2 = e3 at the free columns
    # 1, 2, 3.  The columns of q0, e0 + e1 + e2 and e2 + e3, have the kernel
    # coordinates (1, 1, 0) and (0, 1, 1): q0's rows 1, 2, 3 hold 1, 2 and 1
    # nonzeros, so the fill order is k = 2, 0, 1, and the greedy extension
    # of Im q0 in its reverse keeps k1 where index order keeps k0
    from bvbfv.linalg import _fill_order
    from test_linalg import dense_rank

    q0 = RatMatrix.from_rows([[1, 0], [1, 0], [1, 1], [0, 1]], 2)
    q1 = RatMatrix.from_rows([[1, -1, 0, 0]], 4)
    piece = _GradedPiece.of_differential("p", {0: 2, 1: 4, 2: 1}, {0: q0, 1: q1}, 1)
    if modulo:
        # a map of its own: the piece divides it out with all its columns
        piece = piece.modulo("m", {1: q0.copy()})
    ker = kernel_basis(q1)
    order = _fill_order(ker, q0)
    assert list(order) == [2, 0, 1]

    def rank(vecs):
        return dense_rank([[v.get(i, 0) for v in vecs] for i in range(4)])

    basis, ext, kept = ker.basis, q0.columns(), []
    for k in reversed(order):
        if rank(ext + [basis[k]]) > rank(ext):
            ext.append(basis[k])
            kept.append(k)
    reps, coords = piece.reps(1), piece._coords[1]
    assert reps == ker.matrix().submatrix(range(4), sorted(kept))
    assert reps != _kernel_quotient(q1, ker, q0)[0].matrix()
    # the class map kills the image and reads the representatives as I
    assert (coords * q0).is_zero() and coords * reps == RatMatrix.identity(reps.cols)
