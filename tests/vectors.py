"""Sparse vectors (dicts index -> Fraction, zero entries never stored) for
the tests' per-vector checks.  The package maps and tests vectors only as
one-column matrices; the helpers below that touch a matrix or a subspace
go through that path (a product, `Subspace._coords_of`, `solve` of one
column), so the tests carry no second matrix-vector product."""

from fractions import Fraction
from math import gcd, lcm

from bvbfv.linalg import RatMatrix, column_span, solve


def vec_add(u, v):
    out = dict(u)
    for i, x in v.items():
        s = out.get(i, 0) + x
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def vec_scale(u, c):
    c = Fraction(c)
    if not c:
        return {}
    return {i: c * x for i, x in u.items()}


def vec_dot(u, v):
    if len(u) > len(v):
        u, v = v, u
    return sum((x * v[i] for i, x in u.items() if i in v), Fraction(0))


def vec_eq(u, v):
    """u == v as vectors; explicit zero entries count as absent."""
    return {i: x for i, x in u.items() if x} == {i: x for i, x in v.items() if x}


def primitive(v):
    """v scaled to primitive integer form (first nonzero > 0), as Fractions."""
    if not v:
        return {}
    den = lcm(*(x.denominator for x in v.values()))
    ints = {j: x.numerator * (den // x.denominator) for j, x in v.items()}
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {j: Fraction(x // g) for j, x in ints.items()}


def column(v, n):
    """The sparse vector v of Q^n as an n x 1 matrix."""
    return RatMatrix.from_columns([v], n)


def matvec(m, v):
    """m v: the product of m with v as one column."""
    return (m * column(v, m.cols)).columns()[0]


def sparse_rows(m):
    """The rows of m as sparse vectors of Fractions."""
    return m.transpose().columns()


def basis(s):
    """The basis of the Subspace s as sparse vectors of Fractions."""
    return s.matrix().columns()


def coords_of(s, v):
    """The coordinates of v in the basis of s, or None when v is off the
    span."""
    y = s._coords_of(column(v, s.ambient_dim))
    return None if y is None else y.columns()[0]


def contains(s, v):
    return coords_of(s, v) is not None


def solve_vector(m, b):
    """One solution x of m x = b (free unknowns 0), or None."""
    x = solve(m, column(b, m.rows))
    return None if x is None else x.columns()[0]


def pair_value(form, u, v):
    """u^T form v for two sparse vectors."""
    return vec_dot(u, matvec(form, v))


def span_of(vecs, n):
    """`column_span` of the sparse vectors vecs of Q^n."""
    return column_span(RatMatrix.from_columns(vecs, n))
