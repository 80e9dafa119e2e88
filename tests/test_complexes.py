import pytest

from bvbfv import corpus
from bvbfv.complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    NotShortExact,
    les_of_pair,
)
from bvbfv.linalg import RatMatrix


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
