"""Oriented simplicial pseudomanifolds with boundary.

Provides coboundary operators, the induced boundary orientation,
restrictions and relative complexes -- the discrete realizations of d, dN
and (N, dN).  d^2 = 0 holds exactly.  The cup product evaluated on the
fundamental cycle is `theories.cup_block`, one matrix per pair of degrees.

`OrientedComplex.restriction` is the one builder of restrictions of
cochains to a subcomplex.  The restriction to the boundary is a coordinate
projection, so the interior faces are the columns it does not read, and
the relative complex C(N, dN) is cut out of C(N) by them; it is built
only when asked for, never by a theory build, which reads the restriction.
"""

from __future__ import annotations

import json
from itertools import combinations

from .complexes import ChainMap, CochainComplex
from .linalg import RatMatrix, _unit_columns, _unread


class SimplicialError(Exception):
    pass


class NonManifoldFace(SimplicialError):
    pass


class IncoherentOrientation(SimplicialError):
    pass


class DuplicateSimplex(SimplicialError):
    pass


def _perm_sign(seq):
    """Sign of the permutation sorting seq (None if repeated entries)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class OrientedComplex:
    """Simplicial pseudomanifold with boundary and coherent orientation.

    Vertices carry the global order given by the `vertices` list; every face
    is stored as an increasing tuple of vertex positions.  The fundamental
    chain is the signed sum of top faces; its boundary must be supported on
    the boundary faces with coefficients +-1.
    """

    def __init__(self, dimension, vertices, top_simplices, orientation_signs=None):
        self.dimension = int(dimension)
        self.vertex_ids = list(vertices)
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise SimplicialError("duplicate vertex ids")
        self._vpos = {v: i for i, v in enumerate(self.vertex_ids)}
        if orientation_signs is None:
            orientation_signs = [1] * len(top_simplices)
        if len(orientation_signs) != len(top_simplices):
            raise SimplicialError("orientation_signs length mismatch")
        tops = {}
        for tup, sgn in zip(top_simplices, orientation_signs):
            if len(tup) != self.dimension + 1:
                raise SimplicialError(f"top simplex {tup} has wrong dimension")
            if sgn not in (1, -1):
                raise SimplicialError("orientation signs must be +-1")
            try:
                pos = [self._vpos[v] for v in tup]
            except KeyError as e:
                raise SimplicialError(f"unknown vertex {e} in {tup}")
            ps = _perm_sign(pos)
            if ps is None:
                raise DuplicateSimplex(f"repeated vertex in simplex {tup}")
            key = tuple(sorted(pos))
            if key in tops:
                raise DuplicateSimplex(f"top simplex {tup} listed twice")
            tops[key] = sgn * ps
        self.top = dict(sorted(tops.items()))
        self._faces = None
        self._findex = None
        # derived-operator caches; the complex is immutable after load and
        # the computations are idempotent, so concurrent readers at worst
        # recompute the same value
        self._cache = {}
        # both checks read one walk of the ridges
        ridges = self._ridge_incidence() if self.dimension else {}
        self._check_pseudomanifold(ridges)
        self._check_orientation(ridges)

    # -- derived face data --------------------------------------------------

    def faces(self, k):
        """Sorted list of k-faces (as increasing vertex-position tuples)."""
        if self._faces is None:
            by_dim = {d: set() for d in range(self.dimension + 1)}
            for t in self.top:
                for d in range(self.dimension + 1):
                    for f in combinations(t, d + 1):
                        by_dim[d].add(f)
            self._faces = {d: sorted(s) for d, s in by_dim.items()}
            self._findex = {
                d: {f: i for i, f in enumerate(fs)} for d, fs in self._faces.items()
            }
        return self._faces.get(k, [])

    def face_positions(self, k):
        """The position of each k-face in `faces(k)`, as one dict: the
        builders look faces up in it directly."""
        self.faces(0)
        return self._findex.get(k, {})

    def face_index(self, k, face):
        return self.face_positions(k)[tuple(face)]

    def n_faces(self, k):
        return len(self.faces(k))

    def vertex_position(self, vid):
        return self._vpos[vid]

    def face_vertices(self, face):
        return tuple(self.vertex_ids[i] for i in face)

    # -- validation ----------------------------------------------------------

    def _ridge_incidence(self):
        inc = {}
        for t, sgn in self.top.items():
            for i in range(len(t)):
                f = t[:i] + t[i + 1:]
                inc.setdefault(f, []).append((t, (-1) ** i * sgn))
        return inc

    def _check_pseudomanifold(self, ridges):
        for f, touching in ridges.items():
            if len(touching) > 2:
                raise NonManifoldFace(
                    f"face {self.face_vertices(f)} lies in {len(touching)} top simplices"
                )

    def _check_orientation(self, ridges):
        bdry = {}
        for f, touching in ridges.items():
            coeff = sum(c for _, c in touching)
            if len(touching) == 2:
                if coeff != 0:
                    raise IncoherentOrientation(
                        f"interior face {self.face_vertices(f)} has boundary "
                        f"coefficient {coeff}"
                    )
            else:
                if coeff not in (1, -1):
                    raise IncoherentOrientation(
                        f"boundary face {self.face_vertices(f)} has coefficient {coeff}"
                    )
                bdry[f] = coeff
        self._boundary_data = dict(sorted(bdry.items()))

    # -- boundary ------------------------------------------------------------

    def boundary_faces(self):
        """Boundary (n-1)-faces with their induced orientation signs."""
        return dict(self._boundary_data)

    def is_closed(self):
        return not self.boundary_faces()

    def boundary_complex(self):
        """The boundary as an OrientedComplex with the induced orientation
        (so that the boundary of the fundamental chain is the boundary's
        fundamental cycle on the nose)."""
        if "boundary_complex" in self._cache:
            return self._cache["boundary_complex"]
        out = self._boundary_complex()
        self._cache["boundary_complex"] = out
        return out

    def _boundary_complex(self):
        bdry = self.boundary_faces()
        verts = sorted({i for f in bdry for i in f})
        vids = [self.vertex_ids[i] for i in verts]
        tops = [tuple(self.vertex_ids[i] for i in f) for f in bdry]
        signs = [int(s) for s in bdry.values()]
        if not tops:
            return _empty_complex(self.dimension - 1)
        return OrientedComplex(self.dimension - 1, vids, tops, signs)

    # -- coboundary ----------------------------------------------------------

    def coboundary_matrix(self, k):
        """d_k : C^k -> C^{k+1} with orientation signs."""
        if ("d", k) in self._cache:
            return self._cache[("d", k)]
        out = self._coboundary_matrix(k)
        self._cache[("d", k)] = out
        return out

    def _coboundary_matrix(self, k):
        rows = self.n_faces(k + 1)
        cols = self.n_faces(k)
        ints = {}
        pos = self.face_positions(k)
        for i, t in enumerate(self.faces(k + 1)):
            for a in range(len(t)):
                ints[(i, pos[t[:a] + t[a + 1:]])] = -1 if a % 2 else 1
        return RatMatrix.of_ints(rows, cols, ints)

    def cochain_complex(self):
        if "cochain_complex" in self._cache:
            return self._cache["cochain_complex"]
        comps = {k: self.n_faces(k) for k in range(self.dimension + 1)}
        diffs = {k: self.coboundary_matrix(k) for k in range(self.dimension)}
        out = CochainComplex(comps, diffs)
        self._cache["cochain_complex"] = out
        return out

    # -- restriction and relative complex ---------------------------------------

    def restriction(self, small, k, vmap):
        """C^k(self) -> C^k(small): the pullback along the embedding of the
        subcomplex small given by vmap (small vertex -> vertex of self).
        Each face of small reads the face of self it lands on, with the sign
        of the permutation that sorts its image."""
        ints = {}
        sign = {1: 1, -1: -1}
        at = self.face_positions(k)
        # the position in self of each vertex position of small
        to = {v: self._vpos[vmap[small.vertex_ids[v]]] for (v,) in small.faces(0)}
        for i, f in enumerate(small.faces(k)):
            pos = [to[v] for v in f]
            image = sorted(pos)
            ints[i, at[tuple(image)]] = 1 if image == pos else sign[_perm_sign(pos)]
        return RatMatrix.of_ints(small.n_faces(k), self.n_faces(k), ints)

    def restriction_matrix(self, k):
        """C^k(N) -> C^k(dN), the pullback to the boundary subcomplex: a
        coordinate projection, each boundary face reading its own face."""
        if ("restriction", k) not in self._cache:
            bc = self.boundary_complex()
            self._cache[("restriction", k)] = self.restriction(
                bc, k, {v: v for v in bc.vertex_ids})
        return self._cache[("restriction", k)]

    def _interior_cols(self, k):
        return _unread(self.restriction_matrix(k),
                       SimplicialError("boundary restriction is not a projection"))

    def interior_faces(self, k):
        """The k-faces off the boundary: those that restriction_matrix(k)
        does not read."""
        faces = self.faces(k)
        return [faces[j] for j in self._interior_cols(k)]

    def relative_complex(self):
        """(relative complex, inclusion, restriction): per-degree short exact
        sequence 0 -> C^k(N,dN) -> C^k(N) -> C^k(dN) -> 0."""
        if "relative_complex" in self._cache:
            return self._cache["relative_complex"]
        out = self._relative_complex()
        self._cache["relative_complex"] = out
        return out

    def _relative_complex(self):
        """C(N, dN) is cut out of C(N) by the faces that the restriction
        does not read: the inclusion is their unit columns and the
        differential is d on those faces."""
        absc = self.cochain_complex()
        bc = self.boundary_complex()
        bcx = bc.cochain_complex() if bc.n_faces(0) else CochainComplex({}, {})
        inner = {k: self._interior_cols(k) for k in range(self.dimension + 1)}
        incl_blocks = {k: _unit_columns(cols, self.n_faces(k)) for k, cols in inner.items()}
        diffs = {k: self.coboundary_matrix(k).submatrix(inner[k + 1], inner[k])
                 for k in range(self.dimension)}
        relc = CochainComplex({k: len(cols) for k, cols in inner.items()}, diffs)
        rest_blocks = {k: self.restriction_matrix(k) for k in range(self.dimension + 1)}
        inclusion = ChainMap(relc, absc, incl_blocks)
        restriction = ChainMap(absc, bcx, rest_blocks)
        return relc, inclusion, restriction

    # -- io --------------------------------------------------------------------

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "vertices": list(self.vertex_ids),
            "top_simplices": [list(self.face_vertices(t)) for t in self.top],
            "orientation_signs": [int(s) for s in self.top.values()],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def __repr__(self):
        counts = [self.n_faces(k) for k in range(self.dimension + 1)]
        return f"OrientedComplex(dim {self.dimension}, faces {counts})"


def _empty_complex(dim):
    return OrientedComplex(max(dim, 0), [], [], [])


def is_vertex_id(v):
    """A vertex id in a complex or gluing file: an integer (not a boolean)
    or a string."""
    return type(v) is int or isinstance(v, str)


_COMPLEX_KEYS = {"dimension", "vertices", "top_simplices", "orientation_signs"}


def load_complex(source) -> OrientedComplex:
    """Load a complex from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        data = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        data = json.loads(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise SimplicialError("a complex description must be a JSON object")
    unknown = sorted(set(data) - _COMPLEX_KEYS)
    if unknown:
        raise SimplicialError(f"unknown key {unknown[0]!r} in complex description")
    for key in ("dimension", "vertices", "top_simplices"):
        if key not in data:
            raise SimplicialError(f"missing field {key!r} in complex description")
    if type(data["dimension"]) is not int:
        raise SimplicialError("dimension must be an integer")
    if data["dimension"] < 0:
        raise SimplicialError("dimension must not be negative")
    if not isinstance(data["vertices"], list):
        raise SimplicialError("vertices must be a list")
    if not all(map(is_vertex_id, data["vertices"])):
        raise SimplicialError("vertex ids must be integers or strings")
    if not (isinstance(data["top_simplices"], list)
            and all(isinstance(t, list) and all(map(is_vertex_id, t))
                    for t in data["top_simplices"])):
        raise SimplicialError("top_simplices must be a list of lists of vertex ids")
    if not data["top_simplices"]:
        raise SimplicialError("top_simplices must not be empty")
    signs = data.get("orientation_signs")
    if signs is not None and not (isinstance(signs, list) and all(
            type(s) is int and s in (1, -1) for s in signs)):
        raise SimplicialError("orientation_signs must be a list of the integers 1 and -1")
    tops = [tuple(t) for t in data["top_simplices"]]
    return OrientedComplex(data["dimension"], list(data["vertices"]), tops, signs)
