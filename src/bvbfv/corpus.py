"""Builders for the test-bed complexes: interval, circle, disk, cylinder,
torus, solid torus, products.

Products with a 1-dimensional factor use the staircase (shuffle) prism
triangulation with a single global vertex order, so restriction and cup
products behave uniformly across pieces.  Orientation coherence of every
builder output is certified by the OrientedComplex validator.
"""

from __future__ import annotations

import random
from itertools import permutations

from .simplicial import OrientedComplex, _perm_sign


def point():
    return OrientedComplex(0, [0], [[0]])


def two_points():
    return OrientedComplex(0, [0, 1], [[0], [1]])


def interval(edges=1):
    """Path with `edges` edges on vertices 0..edges."""
    tops = [[i, i + 1] for i in range(edges)]
    return OrientedComplex(1, list(range(edges + 1)), tops)


def circle(m=3):
    """Cycle with m vertices (m >= 3)."""
    tops = [[i, (i + 1) % m] for i in range(m)]
    return OrientedComplex(1, list(range(m)), tops)


def disk():
    """A single positively oriented triangle; boundary is the 3-edge circle."""
    return OrientedComplex(2, [0, 1, 2], [[0, 1, 2]])


def disk_fan():
    """Cone over the triangle circle: 3 triangles around center vertex 3."""
    tops = [[0, 1, 3], [1, 2, 3], [2, 0, 3]]
    return OrientedComplex(2, [0, 1, 2, 3], tops)


def sphere():
    """Boundary of the tetrahedron."""
    tops = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    signs = [1, -1, 1, -1]
    return OrientedComplex(2, [0, 1, 2, 3], tops, signs)


def product_with_segment_complex(base: OrientedComplex, fiber: OrientedComplex):
    """Staircase triangulation of base x fiber for a 1-dimensional fiber.

    Product vertex (u, w) gets id u_pos * |fiber| + w_pos; the prism over a
    base p-simplex and an oriented fiber edge is split into p+1 simplices
    along monotone staircase paths with alternating shuffle signs.
    """
    if fiber.dimension != 1:
        raise ValueError("fiber must be 1-dimensional")
    p = base.dimension
    nw = len(fiber.vertex_ids)

    def vid(u_pos, w_pos):
        return u_pos * nw + w_pos

    vertices = [vid(u, w) for u in range(len(base.vertex_ids)) for w in range(nw)]
    grid = {}
    for u in range(len(base.vertex_ids)):
        for w in range(nw):
            grid[(base.vertex_ids[u], fiber.vertex_ids[w])] = vid(u, w)
    tops = []
    signs = []
    for sigma, eps in base.top.items():
        for (w0, w1), eta in fiber.top.items():
            a = [vid(s, w0) for s in sigma]
            b = [vid(s, w1) for s in sigma]
            for i in range(p + 1):
                tops.append(a[: i + 1] + b[i:])
                signs.append((-1) ** i * eps * eta)
    cx = OrientedComplex(p + 1, vertices, tops, signs)
    cx.meta = {"grid": grid, "base": base, "fiber": fiber}
    return cx


def cylinder(m=3, edges=2):
    """Triangulated S^1 x I; the default has 12 triangles."""
    return product_with_segment_complex(circle(m), interval(edges))


def annulus(m=3, edges=1):
    return product_with_segment_complex(circle(m), interval(edges))


def torus(m=3):
    """Standard 2-triangle-per-square torus grid on an m x m vertex grid."""
    return product_with_segment_complex(circle(m), circle(m))


def solid_torus(m=3):
    """D^2 x S^1 from the disk fan: 9 prisms, 27 tetrahedra for m = 3."""
    return product_with_segment_complex(disk_fan(), circle(m))


def torus_times_interval(m=3, edges=1):
    """T^2 x I, a 3-dimensional complex with two torus boundary components."""
    return product_with_segment_complex(torus(m), interval(edges))


def relabeled(cx: OrientedComplex, seed):
    """The same complex with its vertex list shuffled by `seed`.  Ids, top
    simplices and orientation are kept; the global vertex order, and with
    it the order of the faces and of every cochain basis, is permuted."""
    verts = list(cx.vertex_ids)
    random.Random(seed).shuffle(verts)
    tops = [list(cx.face_vertices(t)) for t in cx.top]
    signs = [int(s) for s in cx.top.values()]
    out = OrientedComplex(cx.dimension, verts, tops, signs)
    if hasattr(cx, "meta"):
        out.meta = dict(cx.meta)
    return out


def subdivide(cx: OrientedComplex):
    """The barycentric subdivision: one vertex per face of cx (ids count the
    faces by dimension, then in face order) and one top simplex per full
    flag of faces of a top simplex, listed from its vertex up and signed by
    the permutation of the top simplex that builds the flag times the top
    simplex's sign."""
    ids = {}
    for k in range(cx.dimension + 1):
        for f in cx.faces(k):
            ids[f] = len(ids)
    tops = []
    signs = []
    for t, sgn in cx.top.items():
        for perm in permutations(t):
            tops.append([ids[tuple(sorted(perm[: k + 1]))] for k in range(len(t))])
            signs.append(_perm_sign(perm) * sgn)
    return OrientedComplex(cx.dimension, list(range(len(ids))), tops, signs)


def with_reversed_orientation(cx: OrientedComplex):
    tops = [list(cx.face_vertices(t)) for t in cx.top]
    signs = [-int(s) for s in cx.top.values()]
    out = OrientedComplex(cx.dimension, list(cx.vertex_ids), tops, signs)
    if hasattr(cx, "meta"):
        out.meta = dict(cx.meta)
    return out


BUILDERS = {
    "point": point,
    "two_points": two_points,
    "interval": interval,
    "interval3": lambda: interval(2),
    "circle": circle,
    "disk": disk,
    "disk_fan": disk_fan,
    "sphere": sphere,
    "cylinder": cylinder,
    "annulus": annulus,
    "torus": torus,
    "solid_torus": solid_torus,
    "torus_times_interval": torus_times_interval,
}
