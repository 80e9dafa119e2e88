"""Sparse vectors (dicts index -> Fraction, zero entries never stored) for
the tests' per-vector reference routes; the package itself maps whole
bases as matrices."""

from fractions import Fraction
from math import gcd, lcm


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
