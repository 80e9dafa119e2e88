import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from bvbfv import linalg
from bvbfv.linalg import (
    _echelon,
    _kernel_int,
    _left_inverse,
    _pivot_columns,
    _sparse_first,
    DimensionMismatch,
    LinalgError,
    PairingForm,
    RatMatrix,
    Subspace,
    SubspaceNotContained,
    image_basis,
    kernel_basis,
    quotient,
    solve,
)
from bvbfv.theories import FieldSpace, set_block
from reference import (
    classify_subspace,
    orthogonal_complement,
    presymplectic_reduce,
    two_sided_complement,
)
from vectors import (
    basis,
    contains,
    coords_of,
    matvec,
    pair_value,
    primitive as _primitive,
    solve_vector,
    span_of,
    sparse_rows,
    vec_add,
    vec_eq,
    vec_scale,
)


# --- independent dense oracle (used only in tests) -------------------------


def dense(m: RatMatrix):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def dense_rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def triangle_circle_d0():
    # vertices 0,1,2; edges (0,1),(0,2),(1,2); d0 f (edge uv) = f(v) - f(u)
    return RatMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])


# --- kernel / image --------------------------------------------------------


def test_kernel_identity_is_zero():
    assert kernel_basis(RatMatrix.identity(2)).dim == 0


def test_kernel_zero_matrix_is_full():
    assert kernel_basis(RatMatrix.zero(3, 3)).dim == 3


def test_kernel_circle_coboundary_is_constants():
    ker = kernel_basis(triangle_circle_d0())
    assert ker.dim == 1
    v = basis(ker)[0]
    assert v.get(0) == v.get(1) == v.get(2)


def test_image_identity_full():
    assert image_basis(RatMatrix.identity(4)).dim == 4


def test_image_zero():
    assert image_basis(RatMatrix.zero(2, 5)).dim == 0


def test_image_circle_coboundary_rank_two():
    assert image_basis(triangle_circle_d0()).dim == 2


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = RatMatrix(rows, cols)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    m[i, j] = rng.randrange(-3, 4)
        assert kernel_basis(m).dim + image_basis(m).dim == cols
        assert image_basis(m).dim == dense_rank(dense(m)) if m.entries else True


# --- solve ------------------------------------------------------------------


def test_solve_consistent_and_inconsistent():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert solve_vector(m, {0: Fraction(1), 1: Fraction(2)}) is not None
    assert solve_vector(m, {0: Fraction(1), 1: Fraction(3)}) is None


def test_solve_rational_entries():
    m = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(2, 5)]])
    x = solve_vector(m, {0: Fraction(1), 1: Fraction(1)})
    assert x is not None
    assert matvec(m, x) == {0: Fraction(1), 1: Fraction(1)}


# --- quotient ---------------------------------------------------------------


def test_quotient_trivial_sub():
    amb = Subspace.full(2)
    comp, coords = quotient(amb, Subspace.zero(2))
    assert comp.dim == 2
    proj = comp.matrix() * coords
    for b in basis(amb):
        assert matvec(proj, b) == b


def test_quotient_everything():
    amb = Subspace.full(3)
    comp, coords = quotient(amb, amb)
    assert comp.dim == 0
    assert coords.shape == (0, 3)
    assert (comp.matrix() * coords).is_zero()


def test_quotient_not_contained():
    amb = Subspace(3, [{0: Fraction(1)}])
    sub = Subspace(3, [{1: Fraction(1)}])
    with pytest.raises(SubspaceNotContained):
        quotient(amb, sub)


def test_quotient_kills_sub_fixes_complement():
    amb = Subspace.full(4)
    sub = Subspace(4, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}])
    comp, coords = quotient(amb, sub)
    assert comp.dim == 2
    proj = comp.matrix() * coords
    for b in basis(sub):
        assert matvec(coords, b) == {}
        assert matvec(proj, b) == {}
    for i, b in enumerate(basis(comp)):
        assert matvec(coords, b) == {i: 1}
        assert matvec(proj, b) == b
    assert span_of(basis(sub) + basis(comp), 4).dim == 4


def test_circle_cohomology_by_quotient():
    d0 = triangle_circle_d0()
    h0 = kernel_basis(d0)
    assert h0.dim == 1  # no incoming differential: H^0 = ker d0
    ones = kernel_basis(RatMatrix.zero(1, 3))  # all of C^1 (d1 = 0)
    im = image_basis(d0)
    comp, _ = quotient(ones, im)
    assert comp.dim == 1  # H^1(S^1)


# --- orthogonal complement / classification ---------------------------------


def symplectic_2d():
    return PairingForm(2, 2, RatMatrix.from_rows([[0, 1], [-1, 0]]))


def test_orthogonal_complement_isotropic_line():
    p = symplectic_2d()
    line = Subspace(2, [{0: Fraction(1)}])
    perp = orthogonal_complement(p, "left", line)
    assert perp.dim == 1 and contains(perp, basis(line)[0])


def test_orthogonal_complement_zero_pairing():
    p = PairingForm(3, 3, RatMatrix.zero(3, 3))
    s = Subspace(3, [{0: Fraction(1)}])
    assert orthogonal_complement(p, "left", s).dim == 3


def test_torus_intersection_form_meridian():
    p = symplectic_2d()  # intersection form of H^1(T^2) in the standard basis
    meridian = Subspace(2, [{0: Fraction(1)}])
    perp = orthogonal_complement(p, "right", meridian)
    assert perp.dim == 1 and contains(perp, basis(meridian)[0])
    verdict = classify_subspace(p, meridian)
    assert verdict["lagrangian"]


def test_classify_zero_and_full():
    p = symplectic_2d()
    zero = Subspace.zero(2)
    v = classify_subspace(p, zero)
    assert v["isotropic"] and not v["coisotropic"]
    full = Subspace.full(2)
    v = classify_subspace(p, full)
    assert v["coisotropic"] and not v["isotropic"]


def test_double_complement_identity_nondegenerate():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice([2, 4])
        # random invertible antisymmetric-ish pairing: permuted symplectic
        m = RatMatrix(n, n)
        for i in range(0, n, 2):
            m[i, i + 1] = rng.choice([1, 2, -1])
            m[i + 1, i] = -m[i, i + 1]
        p = PairingForm(n, n, m)
        vecs = []
        for _ in range(rng.randrange(1, n)):
            vecs.append({j: Fraction(rng.randrange(-2, 3)) for j in range(n)})
        s = span_of(vecs, n)
        perp = orthogonal_complement(p, "left", s)
        back = orthogonal_complement(p, "right", perp)
        assert back == s


# --- presymplectic reduction -------------------------------------------------


def test_presymplectic_reduce_nondegenerate_keeps_everything():
    p = symplectic_2d()
    sub = Subspace(2, [{0: Fraction(1)}])
    out = presymplectic_reduce(p, sub)
    assert out["reduced_dim"] == 2
    assert out["reduced_sub"].dim == 1
    assert all(out["facts"].values())


def test_presymplectic_reduce_zero_pairing():
    p = PairingForm(3, 3, RatMatrix.zero(3, 3))
    out = presymplectic_reduce(p, Subspace.full(3))
    assert out["reduced_dim"] == 0
    assert all(out["facts"].values())


def test_presymplectic_reduce_rank_two_example():
    # 4-dim space, rank-2 pairing in coordinates (x0, x1 symplectic; x2, x3 null)
    m = RatMatrix(4, 4)
    m[0, 1] = 1
    m[1, 0] = -1
    p = PairingForm(4, 4, m)
    # L = span(x0, x2, x3): contains the kernel span(x2,x3), coisotropic
    sub = Subspace(4, [{0: Fraction(1)}, {2: Fraction(1)}, {3: Fraction(1)}])
    out = presymplectic_reduce(p, sub)
    assert out["reduced_dim"] == 2
    assert out["reduced_sub"].dim == 1
    verdict = classify_subspace(out["reduced_pairing"], out["reduced_sub"])
    assert verdict["lagrangian"]
    assert all(out["facts"].values())


def brute_force_isotropic(p, s):
    return all(
        pair_value(p.matrix, a, b) == 0 and pair_value(p.matrix, b, a) == 0 for a in basis(s) for b in basis(s)
    )


def brute_force_coisotropic(p, s, trials=150, seed=11):
    # sample vectors; every sampled element of s-perp must lie in s
    rng = random.Random(seed)
    n = p.left_dim
    ok = True
    for _ in range(trials):
        v = {j: Fraction(rng.randrange(-2, 3)) for j in range(n)}
        v = {j: x for j, x in v.items() if x}
        in_perp = all(
            pair_value(p.matrix, v, b) == 0 and pair_value(p.matrix, b, v) == 0 for b in basis(s)
        ) if s.dim else all(False for _ in ())
        if s.dim == 0:
            in_perp = all(
                pair_value(p.matrix, v, b) == 0 and pair_value(p.matrix, b, v) == 0 for b in basis(Subspace.full(n))
            )
        if in_perp and not contains(s, v):
            ok = False
            break
    return ok


def test_prop_lagr_clauses_randomized_hundred():
    """Appendix-style property run: 100 random degenerate pairings.

    Verifies the three reduction clauses against brute-force checks on small
    spanning sets.
    """
    rng = random.Random(2024)
    ran = 0
    while ran < 100:
        n = rng.randrange(2, 9)
        m = RatMatrix(n, n)
        # random antisymmetric matrix, usually degenerate
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
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
        facts = out["facts"]
        assert facts["reduced_nondegenerate"]
        assert facts["isotropy_matches"]
        assert facts["lagrangian_descends"]
        assert facts["lagrangian_lifts"]
        # cross-check isotropy of sub and of its image against brute force
        before = classify_subspace(p, sub)
        assert before["isotropic"] == brute_force_isotropic(p, sub)
        if before["coisotropic"]:
            assert brute_force_coisotropic(p, sub, seed=ran)
        ran += 1


# --- hypothesis property tests ----------------------------------------------


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    m = RatMatrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            v = draw(small_entries)
            if v:
                m[i, j] = v
    return m


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity_hypothesis(m):
    assert kernel_basis(m).dim + image_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_kernel_vectors_annihilated(m):
    for b in basis(kernel_basis(m)):
        assert matvec(m, b) == {}


rational_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def rational_low_rank_matrix(draw):
    """A product (rows x k)(k x cols) of rational matrices, so that ranks
    below min(rows, cols) come up as often as full ones."""
    rows, k, cols = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    a, b = RatMatrix(rows, k), RatMatrix(k, cols)
    for m in (a, b):
        for i in range(m.rows):
            for j in range(m.cols):
                m[i, j] = draw(rational_entries)
    return a * b


@settings(max_examples=80, deadline=None)
@given(rational_low_rank_matrix())
def test_ranks_match_sympy(m):
    # an independent oracle: sympy's exact rank over Q
    import sympy

    want = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(
        m[i, j].numerator, m[i, j].denominator)).rank()
    assert m.rank() == want
    assert image_basis(m).dim == want
    assert m.cols - kernel_basis(m).dim == want


@settings(max_examples=40, deadline=None)
@given(small_matrix(), st.lists(small_entries, min_size=5, max_size=5))
def test_solve_agrees_with_matvec(m, coeffs):
    x = {j: Fraction(coeffs[j]) for j in range(m.cols) if coeffs[j]}
    b = matvec(m, x)
    got = solve_vector(m, b)
    assert got is not None
    assert matvec(m, got) == b


@settings(max_examples=80, deadline=None)
@given(rational_low_rank_matrix(), st.data())
def test_kernel_quotient_reads_what_quotient_solves(q, data):
    # the columns of m are rational combinations of ker q's basis, zero
    # columns among them; read at the free columns, each gets the
    # coordinates that the solve gives it, and the quotient is the one the
    # solves give
    from bvbfv.linalg import _coords_of_columns, _kernel_quotient

    ker = kernel_basis(q)
    cols = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        v = {}
        for b in basis(ker):
            v = vec_add(v, vec_scale(b, data.draw(rational_entries)))
        cols.append(v)
    m = RatMatrix.from_columns(cols, q.cols)
    assert _coords_of_columns(ker, m) == \
        RatMatrix.from_columns([coords_of(ker, v) for v in cols], ker.dim)
    comp, coords = quotient(ker, m)
    got, got_coords = _kernel_quotient(q, ker, m)
    assert basis(got) == basis(comp)
    assert list(got_coords.entries.items()) == list(coords.entries.items())
    # a column that q does not kill is refused, as the solve refuses it
    off = [j for j in range(q.cols) if matvec(q, {j: Fraction(1)})]
    if off:
        m = RatMatrix.from_columns(cols + [{off[0]: Fraction(1, 2)}], q.cols)
        with pytest.raises(SubspaceNotContained, match="sub is not inside ambient"):
            _kernel_quotient(q, ker, m)


def sparse_vector(entries):
    return {i: Fraction(x) for i, x in enumerate(entries) if x}


@settings(max_examples=80, deadline=None)
@given(small_matrix(), st.data())
def test_selection_rules_match_dense_rank(m, data):
    n = m.rows
    cols = [{i: m[i, j] for i in range(n) if m[i, j]} for j in range(m.cols)]

    def rank(vecs):
        return dense_rank([[v.get(i, 0) for v in vecs] for i in range(n)])

    # column_span keeps column j exactly when the rank rises
    span = span_of(cols, n)
    rises = [c for j, c in enumerate(cols) if rank(cols[:j + 1]) > rank(cols[:j])]
    assert len(basis(span)) == len(rises)
    assert all(rank([a, b]) == 1 for a, b in zip(basis(span), rises))
    # the independence check
    if rank(cols) < len(cols):
        with pytest.raises(LinalgError):
            Subspace(n, cols)
    else:
        assert Subspace(n, cols).dim == len(cols)
    # vectors in the span of m, plus at most one drawn freely
    row = st.lists(small_entries, min_size=m.cols, max_size=m.cols)
    vecs = [matvec(m, sparse_vector(x)) for x in data.draw(st.lists(row, max_size=3))]
    free = st.lists(small_entries, min_size=n, max_size=n).map(sparse_vector)
    vecs += data.draw(st.lists(free, max_size=1))
    sub = span_of(vecs, n)
    contained = rank(basis(span) + basis(sub)) == span.dim
    assert span.contains_subspace(sub) == contained
    if contained:
        # the complement is the greedy extension of sub's basis
        comp, _ = quotient(span, sub)
        ext, greedy = list(basis(sub)), []
        for b in basis(span):
            if rank(ext + [b]) > rank(ext):
                ext.append(b)
                greedy.append(b)
        assert basis(comp) == greedy
    else:
        with pytest.raises(SubspaceNotContained):
            quotient(span, sub)
    for v in vecs:
        x = coords_of(span, v)
        if rank(basis(span) + [v]) == span.dim:
            assert x is not None and matvec(span.matrix(), x) == v
        else:
            assert x is None


# --- the sparse kernels against dense-scan reference implementations -------


def _int_rows_reference(rows):
    out = []
    for r in rows:
        if not r:
            out.append({})
            continue
        den = 1
        for v in r.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ints = {j: int(v * den) for j, v in r.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g > 1:
            ints = {j: v // g for j, v in ints.items()}
        out.append(ints)
    return out


def _markowitz_key(v, r, i):
    """The pivot rule of `_echelon`: smallest |pivot|, then shortest row,
    then lowest index."""
    return (abs(v), len(r), i)


def _index_key(v, r, i):
    """The earlier pivot rule: smallest |pivot|, then lowest index."""
    return (abs(v), i)


def _echelon_reference(rows, col_order=None, pivot_key=_markowitz_key):
    """Scans every row for every pivot column; the pivot row minimises
    pivot_key(entry, row, index) (by default the rule of `_echelon`)."""
    rows = [dict(r) for r in rows]
    ncols = 0
    for r in rows:
        if r:
            ncols = max(ncols, max(r) + 1)
    order = list(col_order) if col_order is not None else list(range(ncols))
    used = set()
    pivots = []
    for col in order:
        best = None
        for i, r in enumerate(rows):
            if i in used:
                continue
            v = r.get(col)
            if v:
                key = pivot_key(v, r, i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        p = best[1]
        used.add(p)
        pivots.append((p, col))
        pv = rows[p][col]
        prow = rows[p]
        for i, r in enumerate(rows):
            if i == p or col not in r:
                continue
            rv = r[col]
            new = {j: v * pv for j, v in r.items()}
            for j, v in prow.items():
                s = new.get(j, 0) - rv * v
                if s:
                    new[j] = s
                else:
                    new.pop(j, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            rows[i] = new
    return pivots, rows


@st.composite
def sparse_int_rows(draw):
    """Up to 8 sparse integer rows over at most 8 columns (zero rows
    included), and a column order: None or a permuted subset."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(min_value=-4, max_value=4))
    rows = [{j: v for j, v in enumerate(draw(st.lists(entry, min_size=ncols,
                                                     max_size=ncols))) if v}
            for _ in range(draw(st.integers(min_value=0, max_value=8)))]
    order = draw(st.one_of(st.none(), st.permutations(range(ncols)).flatmap(
        lambda p: st.integers(min_value=0, max_value=ncols).map(lambda k: p[:k]))))
    return rows, order


@settings(max_examples=300, deadline=None)
@given(sparse_int_rows())
def test_echelon_matches_dense_scan(case):
    rows, order = case
    assert _echelon(rows, order) == _echelon_reference(rows, order)


def _echelon_copying(rows, col_order=None):
    """`_echelon` with the update that builds a new row per update: each
    row r holding the pivot column becomes pv r - rv prow, with no gcd of
    the multipliers taken, in a new dict, divided by its content."""
    rows = [dict(r) for r in rows]
    holders = {}
    for i, r in enumerate(rows):
        for j in r:
            holders.setdefault(j, set()).add(i)
    if col_order is not None:
        order = list(col_order)
    else:
        order = range(max(holders) + 1 if holders else 0)
    used = set()
    pivots = []
    for col in order:
        at = holders.get(col)
        if not at:
            continue
        best = None
        for i in at:
            r = rows[i]
            v = r[col]
            if v and i not in used:
                key = (abs(v), len(r), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        p = best[2]
        used.add(p)
        pivots.append((p, col))
        prow = rows[p]
        pv = prow[col]
        for i in [i for i in at if i != p]:
            r = rows[i]
            rv = r[col]
            new = dict(r) if pv == 1 else {j: v * pv for j, v in r.items()}
            for j, v in prow.items():
                old = new.get(j)
                s = (old or 0) - rv * v
                if s:
                    if old is None:
                        holders.setdefault(j, set()).add(i)
                    new[j] = s
                else:
                    new.pop(j, None)
                    holders[j].discard(i)
            g = gcd(*new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            rows[i] = new
    return pivots, rows


@st.composite
def wide_int_rows(draw):
    """`sparse_int_rows` with each row scaled by 1, 2, 6 or -4, so that
    pivots and the entries under them share factors and rows start out
    with a content."""
    rows, order = draw(sparse_int_rows())
    scales = draw(st.lists(st.sampled_from([1, 2, 6, -4]), min_size=len(rows),
                           max_size=len(rows)))
    return [{j: v * c for j, v in r.items()} for r, c in zip(rows, scales)], order


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_int_rows(), wide_int_rows()))
def test_echelon_updates_rows_as_the_copying_elimination(case):
    # the in-place update with reduced multipliers gives the same pivots
    # and the same reduced rows, key for key, and leaves the input alone
    rows, order = case
    before = [list(r.items()) for r in rows]
    pivots, red = _echelon(rows, order)
    assert [list(r.items()) for r in rows] == before
    want_pivots, want = _echelon_copying(rows, order)
    assert pivots == want_pivots
    assert [list(r.items()) for r in red] == [list(r.items()) for r in want]
    assert all(r is not s for r in red for s in rows)


@settings(max_examples=300, deadline=None)
@given(sparse_int_rows())
def test_row_rule_keeps_pivot_columns_and_visited_rows(case):
    # With the column order fixed, the pivot columns and, on the visited
    # columns, each pivot column's reduced row (up to scale) do not depend
    # on which row is taken as pivot.
    rows, order = case
    ncols = 1 + max((j for r in rows for j in r), default=-1)
    visited = set(range(ncols) if order is None else order)

    def reduced(pivot_key):
        pivots, red = _echelon_reference(rows, order, pivot_key)
        return {c: _primitive({j: x for j, x in red[r].items() if j in visited})
                for r, c in pivots}

    new, old = reduced(_markowitz_key), reduced(_index_key)
    assert new.keys() == old.keys()
    assert new == old


@settings(max_examples=150, deadline=None)
@given(small_matrix(), st.lists(small_entries, min_size=5, max_size=5))
def test_row_rule_keeps_the_outputs_it_should(m, coeffs):
    # kernels, solutions, quotients and spanning subsets equal their
    # values under the earlier row rule, vector for vector and key for key
    cols = [{i: m[i, j] for i in range(m.rows) if m[i, j]} for j in range(m.cols)]
    b = {i: v for i, v in enumerate(coeffs[:m.rows]) if v}

    def outputs():
        ker = kernel_basis(m)
        sub = span_of(basis(ker)[1:], m.cols)
        quotients = [quotient(Subspace.full(m.cols), ker), quotient(ker, sub)]
        x = solve_vector(m, b)
        return ([list(v.items()) for v in basis(ker)], list(ker._inv.ints.items()),
                ker._inv.den, x and list(x.items()),
                _pivot_columns(RatMatrix.from_columns(cols, m.rows)),
                [([list(v.items()) for v in basis(comp)], list(c.entries.items()))
                 for comp, c in quotients])

    new = outputs()
    with mock.patch.object(linalg, "_echelon", lambda rows, col_order=None:
                           _echelon_reference(rows, col_order, _index_key)):
        assert outputs() == new
    # the lift may pick another left inverse, but it still is one
    bmat = span_of(cols, m.rows).matrix()
    assert _left_inverse(bmat) * bmat == RatMatrix.identity(bmat.cols)


def _kernel_int_reference(rows, ncols, col_order=None):
    """The Fraction read-off: 1 at each free column f, -x / pv at each pivot
    column whose row holds x at f."""
    pivots, red = _echelon(rows, col_order)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in (j for j in range(ncols) if j not in pivot_cols):
        v = {f: Fraction(1)}
        for r, c in pivots:
            x = red[r].get(f)
            if x:
                v[c] = Fraction(-x, red[r][c])
        basis.append(v)
    return basis


@settings(max_examples=300, deadline=None)
@given(sparse_int_rows())
def test_integer_kernel_read_off_matches_the_fraction_one(case):
    rows, order = case
    ncols = 1 + max([j for r in rows for j in r] + list(order or []), default=-1)
    got, free = _kernel_int(rows, ncols, order)
    assert got.den == 1 and got.shape == (ncols, len(free))
    got = got.columns()
    want = [_primitive(v) for v in _kernel_int_reference(rows, ncols, order)]
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert len(free) == len(got) and all(f in v for f, v in zip(free, got))


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_internal_subspaces_match_the_public_constructor(m):
    cols = [{i: m[i, j] for i in range(m.rows) if m[i, j]} for j in range(m.cols)]
    ker = kernel_basis(m)
    spaces = [ker, image_basis(m), span_of(cols, m.rows),
              quotient(Subspace.full(m.cols), ker)[0]]
    for s in spaces:
        public = Subspace(s.ambient_dim, basis(s))
        assert [list(v.items()) for v in basis(s)] == \
            [list(v.items()) for v in basis(public)]
        assert all(type(x) is Fraction and x for v in basis(s) for x in v.values())


def dense_product(m, v):
    out = {}
    for i in range(m.rows):
        s = sum((m[i, j] * v.get(j, 0) for j in range(m.cols)), Fraction(0))
        if s:
            out[i] = s
    return out


@st.composite
def rational_matrix(draw, rows=None, cols=None):
    """A rational matrix from `rational_entries`, its entries stored in a
    drawn order."""
    rows = rows or draw(st.integers(min_value=1, max_value=5))
    cols = cols or draw(st.integers(min_value=1, max_value=5))
    vals = {(i, j): draw(rational_entries) for i in range(rows) for j in range(cols)}
    m = RatMatrix(rows, cols)
    for ij in draw(st.permutations(sorted(vals))):
        m[ij] = vals[ij]
    return m


def _set_block_reference(m, r0, c0, block, scale):
    """The block added entry by entry through __setitem__."""
    for (i, j), v in block.entries.items():
        m[r0 + i, c0 + j] = m[r0 + i, c0 + j] + Fraction(scale) * v


def _block_spaces(m, r0, c0):
    """Field spaces over m's rows and columns with a slot ('b', 0) that
    starts at row r0 and column c0 and runs to the end."""
    spaces = []
    for n, start in ((m.rows, r0), (m.cols, c0)):
        space = FieldSpace()
        space.add("a", 0, start, 0)
        space.add("b", 0, n - start, 0)
        spaces.append(space)
    return spaces


@settings(max_examples=100, deadline=None)
@given(rational_matrix(), st.data())
def test_writes_and_added_blocks_keep_vector_products_exact(m, data):
    # rational entries in any storage order, and any key order of the
    # rational vector, so the matrix-wide denominator is exercised; the
    # vector is one column of a product
    v = data.draw(_rational_vectors(m.cols))
    v = {j: v[j] for j in data.draw(st.permutations(sorted(v)))}

    def check():
        got = matvec(m, v)
        assert got == dense_product(m, v)
        assert all(type(x) is Fraction for x in got.values())

    check()
    # writes after a first product: set one entry, then zero one
    i = data.draw(st.integers(min_value=0, max_value=m.rows - 1))
    j = data.draw(st.integers(min_value=0, max_value=m.cols - 1))
    m[i, j] = data.draw(small_fractions.filter(bool))
    check()
    m[data.draw(st.sampled_from(sorted(m.entries)))] = 0
    check()
    # and a block added in place
    r0 = data.draw(st.integers(min_value=0, max_value=m.rows - 1))
    c0 = data.draw(st.integers(min_value=0, max_value=m.cols - 1))
    block = data.draw(rational_matrix(m.rows - r0, m.cols - c0))
    scale = data.draw(rational_entries)
    want = m.copy()
    _set_block_reference(want, r0, c0, block, scale)
    rs, cs = _block_spaces(m, r0, c0)
    set_block(m, rs, ("b", 0), cs, ("b", 0), block, scale)
    assert list(m.entries.items()) == list(want.entries.items())
    assert all(type(x) is Fraction for x in m.entries.values())
    check()


def _product_reference(a, b):
    """The product by a Fraction scan of a's entries in storage order
    against the rows of b."""
    by_row = sparse_rows(b)
    acc = {}
    for (i, k), x in a.entries.items():
        for j, y in by_row[k].items():
            acc[(i, j)] = acc.get((i, j), 0) + x * y
    return {key: x for key, x in acc.items() if x}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_the_fraction_scan(data):
    a = data.draw(rational_matrix())
    b = data.draw(rational_matrix(rows=a.cols))
    for _ in range(2):      # the second product reads the cached views
        got = a * b
        assert got.shape == (a.rows, b.cols)
        assert list(got.entries.items()) == list(_product_reference(a, b).items())
        assert all(type(x) is Fraction for x in got.entries.values())


# --- the integer storage against plain Fraction dicts -------------------------


wide_fractions = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                           st.sampled_from([1, 1, 2, 3, 4, 6, 9, 10]))


@st.composite
def sparse_rational(draw, rows=None, cols=None):
    """(m, ref): a sparse rational matrix and its entries as a plain dict of
    Fractions, in the drawn storage order."""
    rows = rows or draw(st.integers(min_value=1, max_value=5))
    cols = cols or draw(st.integers(min_value=1, max_value=5))
    keys = draw(st.permutations([(i, j) for i in range(rows) for j in range(cols)]))
    ref = {}
    for key in keys[:draw(st.integers(min_value=0, max_value=len(keys)))]:
        v = draw(wide_fractions)
        if v:
            ref[key] = v
    return RatMatrix(rows, cols, ref), ref


def _sum_reference(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _product_dict_reference(a, b):
    acc = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k2 == k:
                acc[(i, j)] = acc.get((i, j), 0) + x * y
    return {key: x for key, x in acc.items() if x}


def assert_stores(m, ref):
    """m holds exactly ref, in ref's key order, over the least common
    denominator, and shows its entries as Fractions."""
    assert list(m.entries.items()) == list(ref.items())
    assert all(type(x) is Fraction for x in m.entries.values())
    assert m.den == lcm(*(v.denominator for v in ref.values()))
    assert all(type(x) is int and x for x in m.ints.values())
    assert m.is_zero() == (not ref)
    assert m.nnz == len(ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_storage_matches_fraction_dicts(data):
    from bvbfv.complexes import _content

    a, ra = data.draw(sparse_rational())
    assert_stores(a, ra)
    b, rb = data.draw(sparse_rational(a.rows, a.cols))
    c, rc = data.draw(sparse_rational(rows=a.cols))
    assert_stores(a + b, _sum_reference(ra, rb, 1))
    assert_stores(a - b, _sum_reference(ra, rb, -1))
    product = a * c
    assert_stores(product, _product_dict_reference(ra, rc))
    s = data.draw(wide_fractions)
    assert_stores(a.scale(s), {k: s * v for k, v in ra.items()} if s else {})
    assert_stores(a.transpose(), {(j, i): v for (i, j), v in ra.items()})
    rows = data.draw(st.lists(st.integers(0, a.rows - 1), unique=True, min_size=1))
    cols = data.draw(st.lists(st.integers(0, a.cols - 1), unique=True, min_size=1))
    rpos = {r: i for i, r in enumerate(rows)}
    cpos = {c: j for j, c in enumerate(cols)}
    assert_stores(a.submatrix(rows, cols),
                  {(rpos[i], cpos[j]): v for (i, j), v in ra.items()
                   if i in rpos and j in cpos})
    assert (a == b) == (ra == rb)
    assert a == RatMatrix(a.rows, a.cols, dict(reversed(ra.items())))
    assert a.rank() == dense_rank(dense(a))
    # the content key is canonical: a product and the same entries built
    # afresh, or written one by one, give one key
    fresh = RatMatrix(product.rows, product.cols, dict(product.entries))
    written = RatMatrix(product.rows, product.cols)
    for key, v in product.entries.items():
        written[key] = v
    assert _content(product) == _content(fresh) == _content(written)


@settings(max_examples=100, deadline=None)
@given(sparse_rational(), st.data())
def test_writes_keep_the_storage_canonical(mr, data):
    m, ref = mr
    for _ in range(4):
        key = (data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1)))
        v = data.draw(st.one_of(st.just(Fraction(0)), wide_fractions))
        m[key] = v
        if v:
            ref[key] = v
        else:
            ref.pop(key, None)
        assert_stores(m, ref)
    with pytest.raises(TypeError):
        m.entries[(0, 0)] = Fraction(1)


def test_integral_hot_path_builds_no_fraction_map(monkeypatch):
    # products, sums, transposes, the zero test and a kernel run on the
    # integer storage: no Fraction is built for them, and no matrix's
    # Fraction map is built
    rng = random.Random(7)

    def integral(rows, cols):
        m = RatMatrix(rows, cols)
        for _ in range(rows * cols // 2):
            m[rng.randrange(rows), rng.randrange(cols)] = rng.randint(-3, 3)
        return m

    a, b, d = integral(6, 5), integral(5, 7), integral(7, 6)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    c = a * b + d.transpose()
    c.is_zero()
    assert built == []
    ker = kernel_basis(c)
    assert all(m._entries is None for m in (a, b, c, d))
    monkeypatch.undo()
    assert all(matvec(c, v) == {} for v in basis(ker))


@pytest.mark.parametrize("name", ["torus", "solid_torus"])
def test_class_map_path_builds_no_fraction(monkeypatch, name):
    # kernels, representatives, chi, psi, beta and the three pairing
    # blocks are integer columns and products of integer matrices: no
    # Fraction is built for any of them
    from bvbfv import complexes, corpus, moduli
    from bvbfv.theories import build_abelian_cs

    model = moduli.ReducedModel(build_abelian_cs(getattr(corpus, name)()))
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for mod in (linalg, complexes, moduli):
        monkeypatch.setattr(mod, "Fraction", counting, raising=False)
    for g in model.ghosts:
        for piece in (model.bulk, model.bdry, model.vert):
            piece.kernel(g)
            piece.reps(g)
        model.chi(g), model.psi(g), model.beta(g)
        model.pair_vert_bulk(g), model.pair_bulk_vert(g), model.pair_bdry_bdry(g)
    assert built == []
    assert any(model.bulk.h_dim(g) for g in model.ghosts)


def test_builders_refuse_entries_off_the_shape():
    # a nonzero entry outside the stated shape is refused when the matrix
    # or the subspace is built, not by a later product
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_columns([{5: 1}], 3)
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_columns([{-1: 1}], 3)
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_rows([{4: 1}], 3)
    with pytest.raises(DimensionMismatch):
        RatMatrix.from_rows([[0, 0, 0, 1]], 3)
    for check in (True, False):
        with pytest.raises(DimensionMismatch):
            Subspace(3, [{4: 1}], check=check)
    assert RatMatrix.from_columns([{2: 1}, {}], 3).shape == (3, 2)
    assert RatMatrix.from_rows([[0, 1, 0, 0]], 2).entries == {(0, 1): 1}


def test_set_block_overrun_raises():
    m = RatMatrix(3, 3)
    rows, cols = _block_spaces(m, 1, 1)
    with pytest.raises(DimensionMismatch):
        set_block(m, rows, ("b", 0), cols, ("b", 0), RatMatrix.identity(3))
    with pytest.raises(DimensionMismatch):
        set_block(m, rows, ("b", 0), cols, ("b", 0), RatMatrix.from_rows([[0, 0, 1]]))
    assert m.is_zero()
    set_block(m, rows, ("b", 0), cols, ("b", 0), RatMatrix.identity(2), 2)
    assert m.entries == {(1, 1): 2, (2, 2): 2}


@settings(max_examples=100, deadline=None)
@given(small_matrix(), st.data())
def test_orthogonal_complement_matches_per_vector_conditions(m, data):
    p = PairingForm(m.rows, m.cols, m)
    for side, sdim, dim, form in (("left", m.cols, m.rows, m),
                                  ("right", m.rows, m.cols, m.transpose())):
        vec = st.lists(small_entries, min_size=sdim, max_size=sdim).map(sparse_vector)
        s = span_of(data.draw(st.lists(vec, max_size=3)), sdim)
        got = orthogonal_complement(p, side, s)
        if not s.dim:
            assert got.dim == dim
            continue
        cond = RatMatrix.from_rows([matvec(form, b) for b in basis(s)], ncols=dim)
        assert basis(got) == basis(kernel_basis(cond))


# --- the one-pass quotient and the kernel's own coordinates -----------------


def _left_inverse_reference(m, keep):
    """The first `keep` rows of the left inverse of a full-column-rank m:
    one elimination of [m | I] in column order."""
    aug = []
    for i, r in enumerate(sparse_rows(m)):
        rr = dict(r)
        rr[m.cols + i] = Fraction(1)
        aug.append(rr)
    pivots, red = _echelon(_int_rows_reference(aug), col_order=list(range(m.cols)))
    assert len(pivots) == m.cols
    e = RatMatrix(keep, m.rows)
    for r, c in pivots:
        if c < keep:
            for j, v in red[r].items():
                if j >= m.cols:
                    e[c, j - m.cols] = Fraction(v, red[r][c])
    return e


def _quotient_reference(ambient, sub):
    """The two-elimination quotient: the pivot columns of [sub | ambient]
    decide containment and pick the complement, then the leading rows of a
    left inverse of [complement | sub] are the coordinate map."""
    n = ambient.ambient_dim
    pivots = _pivot_columns(RatMatrix.from_columns(basis(sub) + basis(ambient), n))
    if len(pivots) != ambient.dim:
        raise SubspaceNotContained("sub is not inside ambient")
    complement = [basis(ambient)[j - sub.dim] for j in pivots if j >= sub.dim]
    coords = RatMatrix(0, n)
    if complement:
        bmat = RatMatrix.from_columns(complement + list(basis(sub)), n)
        coords = _left_inverse_reference(bmat, len(complement))
    return Subspace(n, complement, check=False), coords


def _vectors(n):
    return st.lists(small_entries, min_size=n, max_size=n).map(sparse_vector)


def _combination(basis, coeffs):
    v = {}
    for b, c in zip(basis, coeffs):
        v = vec_add(v, vec_scale(b, c))
    return v


small_fractions = st.builds(Fraction, small_entries, st.integers(min_value=1, max_value=4))


def _rational_vectors(n):
    return st.lists(small_fractions, min_size=n, max_size=n).map(sparse_vector)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_full_space_kernel_quotient_depends_only_on_the_span(data):
    # the quotient of Q^n by columns given as they come (repeated, dependent
    # or zero) is the quotient by their column_span
    from bvbfv.linalg import _kernel_quotient

    n = data.draw(st.integers(min_value=1, max_value=5))
    cols = data.draw(st.lists(_rational_vectors(n), max_size=4))
    if cols:
        cols += [vec_scale(cols[0], 2), vec_add(cols[0], cols[-1])]
    full, zero = Subspace.full(n), RatMatrix.zero(0, n)
    got, got_coords = _kernel_quotient(zero, full, RatMatrix.from_columns(cols, n))
    want, want_coords = _kernel_quotient(zero, full, span_of(cols, n).matrix())
    assert basis(got) == basis(want)
    assert got_coords == want_coords


@st.composite
def ambient_and_sub(draw):
    """An ambient subspace of Q^n from `kernel_basis`, `column_span`,
    `Subspace.full` or a checked basis of rational vectors; a sub spanned
    by combinations of its basis plus at most one vector drawn freely; and
    some vectors of the ambient."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["kernel", "span", "full", "rational"]))
    if kind == "kernel":
        rows = draw(st.lists(_vectors(n), min_size=1, max_size=4))
        ambient = kernel_basis(RatMatrix.from_rows(rows, ncols=n))
    elif kind == "span":
        ambient = span_of(draw(st.lists(_vectors(n), max_size=5)), n)
    elif kind == "rational":
        vecs = draw(st.lists(_rational_vectors(n), max_size=4))
        ambient = Subspace(n, [vecs[j] for j in _pivot_columns(RatMatrix.from_columns(vecs, n))])
    else:
        ambient = Subspace.full(n)
    coeffs = st.lists(small_entries, min_size=ambient.dim, max_size=ambient.dim)

    def inside(k):
        return [_combination(basis(ambient), c) for c in draw(st.lists(coeffs, max_size=k))]

    sub = span_of(inside(3) + draw(st.lists(_vectors(n), max_size=1)), n)
    return ambient, sub, inside(3) + basis(ambient)


@settings(max_examples=300, deadline=None)
@given(ambient_and_sub())
def test_quotient_matches_the_two_elimination_reference(case):
    ambient, sub, vectors = case
    try:
        ref_comp, ref_coords = _quotient_reference(ambient, sub)
    except SubspaceNotContained:
        with pytest.raises(SubspaceNotContained):
            quotient(ambient, sub)
        return
    comp, coords = quotient(ambient, sub)
    assert basis(comp) == basis(ref_comp)
    assert coords.shape == ref_coords.shape
    for v in vectors + basis(sub):
        assert matvec(coords, v) == matvec(ref_coords, v)


def _identity_block_quotient_reference(ambient, sub):
    """The one-elimination quotient with an identity block: with the
    coordinates x = coords_of(ambient, s) of each basis vector s of the
    Subspace sub, eliminate the m x (ns + m) system [x columns | I_m] (each
    row cleared to integers), the x columns sparse-first and then the unit
    columns in index order.  The complement is the ambient basis at the
    unit pivot columns, and the unit block of their rows, over their
    pivots and times the left inverse E, is the coordinate map."""
    xs = []
    for s in basis(sub):
        x = coords_of(ambient, s)
        if x is None:
            raise SubspaceNotContained("sub is not inside ambient")
        xs.append(x)
    e_rows = sparse_rows(ambient._left_inv())
    m, ns = ambient.dim, sub.dim
    rows = [{ns + k: Fraction(1)} for k in range(m)]
    for j, x in enumerate(xs):
        for k, v in x.items():
            rows[k][j] = v
    order = _sparse_first([len(x) for x in xs]) + list(range(ns, ns + m))
    pivots, red = _echelon(_int_rows_reference(rows), order)
    comp_rows = sorted((c - ns, r) for r, c in pivots if c >= ns)
    coords = RatMatrix(len(comp_rows), ambient.ambient_dim)
    for k, (j, r) in enumerate(comp_rows):
        row = {}
        for c, u in red[r].items():
            if c >= ns:
                row = vec_add(row, vec_scale(e_rows[c - ns], u))
        pv = red[r][ns + j]
        for i in sorted(row):
            coords[k, i] = row[i] / pv
    return Subspace(ambient.ambient_dim, [basis(ambient)[j] for j, _ in comp_rows],
                    check=False), coords


def _quotient_items(comp, coords):
    return ([list(v.items()) for v in basis(comp)], coords.shape,
            list(coords.entries.items()))


@settings(max_examples=300, deadline=None)
@given(ambient_and_sub(), st.data())
def test_quotient_matches_the_identity_block_reference(case, data):
    # the same complement and coordinate map, key for key, from sub as a
    # Subspace and from a dependent spanning list of it in any order
    ambient, sub, _ = case
    try:
        want = _quotient_items(*_identity_block_quotient_reference(ambient, sub))
    except SubspaceNotContained:
        with pytest.raises(SubspaceNotContained):
            quotient(ambient, sub)
        return
    coeffs = st.lists(small_entries, min_size=sub.dim, max_size=sub.dim)
    combos = [_combination(basis(sub), c) for c in data.draw(st.lists(coeffs, max_size=3))]
    spanning = data.draw(st.permutations(basis(sub) + combos + [{}]))
    for s in (sub, RatMatrix.from_columns(spanning, ambient.ambient_dim)):
        comp, coords = quotient(ambient, s)
        assert _quotient_items(comp, coords) == want
        assert all(type(x) is Fraction for x in coords.entries.values())


@settings(max_examples=150, deadline=None)
@given(ambient_and_sub(), st.data())
def test_quotient_rejects_a_spanning_list_with_one_outside_vector(case, data):
    ambient, _, vectors = case
    n = ambient.ambient_dim
    outside = [{i: Fraction(1)} for i in range(n) if not contains(ambient, {i: Fraction(1)})]
    assume(outside)
    spanning = data.draw(st.permutations(vectors + [data.draw(st.sampled_from(outside))]))
    with pytest.raises(SubspaceNotContained):
        quotient(ambient, RatMatrix.from_columns(spanning, n))


@settings(max_examples=200, deadline=None)
@given(small_matrix(), st.data())
def test_solve_of_a_list_matches_one_solve_per_vector(m, data):
    # free unknowns are 0 either way, so the solutions agree key for key;
    # the list is solved as the columns of one matrix, and an inconsistent
    # right-hand side makes the whole answer None
    row = st.lists(small_entries, min_size=m.cols, max_size=m.cols)
    reachable = [matvec(m, sparse_vector(x)) for x in data.draw(st.lists(row, max_size=3))]
    free = st.lists(small_entries, min_size=m.rows, max_size=m.rows).map(sparse_vector)
    bs = data.draw(st.permutations(reachable + data.draw(st.lists(free, max_size=2))))
    got = solve(m, RatMatrix.from_columns(bs, m.rows))
    singles = [solve_vector(m, b) for b in bs]
    if None in singles:
        assert got is None
    else:
        assert got.shape == (m.cols, len(bs))
        assert [list(x.items()) for x in got.columns()] == [list(x.items()) for x in singles]
    for x, b in zip(singles, bs):
        if any(b is r for r in reachable):
            assert x is not None
        if x is not None:
            assert matvec(m, x) == b


@settings(max_examples=200, deadline=None)
@given(small_matrix(), st.data())
def test_kernel_coords_match_a_fresh_left_inverse(m, data):
    ker = kernel_basis(m)
    fresh = Subspace(m.cols, basis(ker))  # factors its own left inverse
    coeffs = st.lists(small_entries, min_size=ker.dim, max_size=ker.dim)
    vectors = [_combination(basis(ker), c) for c in data.draw(st.lists(coeffs, max_size=3))]
    vectors += data.draw(st.lists(_vectors(m.cols), max_size=2))
    for v in vectors + basis(ker):
        x = coords_of(ker, v)
        assert x == coords_of(fresh, v)
        assert (x is None) == bool(matvec(m, v))
    assert ker == fresh and fresh == ker


@settings(max_examples=200, deadline=None)
@given(small_matrix())
def test_sparse_first_bases_span_the_index_order_ones(m):
    ker, _ = _kernel_int(_int_rows_reference(sparse_rows(m)), m.cols)
    assert kernel_basis(m) == Subspace(m.cols, ker.columns())
    cols = sparse_rows(m.transpose())
    piv, _ = _echelon(_int_rows_reference(cols))
    index_order = Subspace(m.rows, [cols[r] for r, _ in piv])
    assert image_basis(m) == index_order
    assert image_basis(m).dim == dense_rank(dense(m))


# --- each span question against its per-vector or Fraction reference ------


def _coords_reference(space, v):
    """Coordinates by the Fraction route: x = E v with a left inverse E
    of the basis matrix, kept when basis * x == v."""
    if not space.dim:
        return {} if vec_eq(v, {}) else None
    bmat = space.matrix()
    x = matvec(_left_inverse_reference(bmat, space.dim), v)
    return x if vec_eq(matvec(bmat, x), v) else None


def _with_zeros(v, n, data):
    """v with explicit zero entries at some of the indices it misses."""
    out = dict(v)
    for i in data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        out.setdefault(i, data.draw(st.sampled_from([0, Fraction(0)])))
    return out


@settings(max_examples=300, deadline=None)
@given(ambient_and_sub(), st.data())
def test_integer_coords_match_the_fraction_reference(case, data):
    ambient, _, vectors = case
    n = ambient.ambient_dim
    coeffs = st.lists(small_fractions, min_size=ambient.dim, max_size=ambient.dim)
    vectors += [_combination(basis(ambient), c) for c in data.draw(st.lists(coeffs, max_size=2))]
    vectors += data.draw(st.lists(_rational_vectors(n), max_size=2))
    for v in vectors:
        v = _with_zeros(v, n, data)
        ref = _coords_reference(ambient, v)
        got = coords_of(ambient, v)
        assert got == ref
        assert contains(ambient, v) == (ref is not None)
        if got is not None:
            assert all(type(x) is Fraction for x in got.values())


def _bare(space):
    """The same basis with no left inverse yet."""
    return Subspace(space.ambient_dim, basis(space), check=False)


@settings(max_examples=300, deadline=None)
@given(ambient_and_sub())
def test_rank_containment_matches_per_vector_coords(case):
    ambient, sub, _ = case
    expect = all(_coords_reference(ambient, b) is not None for b in basis(sub))
    bare = _bare(ambient)
    assert bare.contains_subspace(sub) == expect
    assert bare._inv is None  # answered by rank, without factoring
    assert ambient.contains_subspace(sub) == expect
    assert Subspace(ambient.ambient_dim, basis(ambient)).contains_subspace(sub) == expect


@settings(max_examples=300, deadline=None)
@given(ambient_and_sub(), st.data())
def test_equality_in_both_orders_matches_rank(case, data):
    ambient, sub, vectors = case
    n = ambient.ambient_dim
    other = span_of(data.draw(st.sampled_from(
        [vectors, basis(sub) + basis(ambient), vectors[::-1], basis(ambient)[:-1]])), n)
    rank = dense_rank([[v.get(i, 0) for v in basis(ambient) + basis(other)]
                       for i in range(n)])
    expect = ambient.dim == other.dim == rank
    # each side with no left inverse, a factored one or a preset one
    for a in (ambient, _bare(ambient), Subspace(n, basis(ambient))):
        for b in (other, Subspace(n, basis(other))):
            assert (a == b) == expect
            assert (b == a) == expect


@st.composite
def pairing_and_subspace(draw):
    """A square pairing that is symmetric, antisymmetric or neither, and a
    subspace of the paired space."""
    n = draw(st.integers(min_value=1, max_value=5))
    a = RatMatrix.from_rows(draw(st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)), ncols=n)
    kind = draw(st.sampled_from(["symmetric", "antisymmetric", "neither"]))
    m = {"symmetric": a + a.transpose(), "antisymmetric": a - a.transpose(),
         "neither": a}[kind]
    s = span_of(draw(st.lists(_vectors(n), max_size=3)), n)
    return PairingForm(n, n, m), s


@settings(max_examples=300, deadline=None)
@given(pairing_and_subspace())
def test_two_sided_complement_matches_the_intersection(case):
    p, s = case
    left = orthogonal_complement(p, "left", s)
    right = orthogonal_complement(p, "right", s)
    assert two_sided_complement(p, s) == left.intersect(right)
