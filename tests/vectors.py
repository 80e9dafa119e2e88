"""Sparse vectors (dicts index -> Fraction, zero entries never stored) for
the tests' per-vector reference routes; the package itself maps whole
bases as matrices.  Also the eliminating reference routes of verdicts that
the package now decides by ranks."""

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


def exactness_by_subspaces(seq):
    """The verdicts of `complexes.verify_exactness` by elimination: at each
    interior node i of the sequence, Im maps[i-1] == ker maps[i] as
    `Subspace`s."""
    from bvbfv.linalg import kernel_basis

    return [seq.image(i) == kernel_basis(seq.maps[i]) for i in range(1, len(seq.nodes) - 1)]


def vert_form_kernel_is_ker_chi_by_kernels(model):
    """`moduli.vacua`'s vert_form_kernel_is_ker_chi by elimination: per
    ghost g, the kernel of pair_vert_bulk(g) chi(c - g) against ker chi(c - g),
    the kernel out of the LES's vertical node at c - g."""
    from bvbfv.linalg import Subspace, kernel_basis
    from bvbfv.moduli import tangent_les

    c = model.pair_ghost()
    les = tangent_les(model)
    for g in model.ghosts:
        node = les.index.get(f"vert@gh{c - g}")
        if node is None:
            continue
        ker = kernel_basis(les.maps[node]) if node < len(les.maps) \
            else Subspace.full(les.nodes[node][1])
        if kernel_basis(model.pair_vert_bulk(g) * model.chi(c - g)) != ker:
            return False
    return True
