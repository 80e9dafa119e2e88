"""The graded quotient -- cocycles of one map modulo the image of another,
with representatives and cached class coordinates -- and on it cochain
complexes, chain maps, cohomology and long exact sequences of pairs.

One op (a CLI command, a morphism composition) builds several pieces
whose per-degree blocks are often equal: the glued complex's cochain
differential and the glued theory's Q, the left and right pieces of a
symmetric gluing, and the bulk, vertical and symplectic pieces of a closed
complex, where pi reads nothing.  Inside `shared_eliminations()` the
kernel of a block and the class space of a (block, image map) pair are
computed once and handed to every piece that meets an equal block.  The
key is the block's exact content (`_content`: shape, entries in storage
order as integers over one denominator), never an identity or a hash
alone, so a shared result is the one the piece would have computed.  The
memo lives as long as the scope and is dropped when it closes, so no op
reads another op's eliminations; with no scope open every piece
eliminates its own blocks.

A piece also clears: its kernels and class spaces read only the rows or
columns of a block that a neighbouring kernel it holds leaves independent
(see `_GradedPiece`); memo keys stay the whole blocks' content.  A class
space picks its representatives in the fill order of its whole in-map
(`linalg._fill_order`), which clearing does not change.
"""

from __future__ import annotations

from contextlib import contextmanager

from .linalg import (
    RatMatrix,
    Subspace,
    SubspaceNotContained,
    _coords_of_columns,
    _fill_order,
    _free_columns,
    _kernel_quotient,
    _quotient_of_coords,
    image_basis,
    kernel_basis,
    quotient,
    solve,
)


class ComplexError(Exception):
    pass


class NotShortExact(ComplexError):
    pass


class GhostMismatch(ComplexError):
    pass


# the memo of the open `shared_eliminations` scope, None when none is open
_memo = None


@contextmanager
def shared_eliminations():
    """A scope in which every piece shares its kernels and class spaces
    with the pieces that meet an equal block (see the module docstring).
    A scope opened inside another is the same scope."""
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _shared(kind, blocks, make):
    """make(), or inside `shared_eliminations()` what make gave for blocks
    of equal content, kept under kind in the scope's memo."""
    memo = _memo
    if memo is None:
        return make()
    key = (kind, *map(_content, blocks))
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _content(m):
    """The exact content of a matrix (None for a missing map) as a key: its
    shape, and the keys, integer numerators and denominator of its
    storage, which fix every entry and their storage order."""
    if m is None:
        return None
    return m.rows, m.cols, tuple(m.ints), tuple(m.ints.values()), m.den


class _GradedPiece:
    """ker out(g) / Im in(g) per ghost or degree g, with representatives of
    the classes and a coordinate map factored once per degree.

    dims[g] is the dimension of the space at g, outs[g] the map out of it
    (its kernel holds the cocycles) and ins[g] the map into it (its image
    is divided out).  A missing map is the map to or from the zero space.
    The bulk, boundary and vertical cohomology, the symplectic moduli
    ker Q / Q(ker pi), the Mayer-Vietoris pieces and the cohomology of a
    CochainComplex are all pieces of this kind.  `error` is the exception
    class_coords raises on a vector that is not a cocycle.

    reps(g) holds the representatives as the columns of one RatMatrix,
    and every map of classes is one product with it: `class_matrix` takes
    the cocycles as the columns of a matrix.

    A piece cut out of one flat space of dimension `total` by ghost number
    (the bulk, boundary and Mayer-Vietoris interface pieces, and the
    pieces taken modulo other images of them) holds `index`: index[g]
    lists the flat coordinates of ghost g, in order.  `flat` and `local`
    move the columns of a matrix between the two.  Other pieces have no
    index.

    Each piece is the cohomology of one differential (`of_differential`)
    of step s: q(g) maps degree g to g + s, and ins[g] = q(g - s) unless
    the piece is taken `modulo` other maps.  `_closed(g)` makes the
    product q(g + s) q(g) once per degree.  When it is zero, a piece
    clears with a neighbouring kernel that it already holds, never with
    one eliminated for the purpose:
    - kernel(g) eliminates only the rows of q(g) at the free columns of
      kernel(g + s): the columns of q(g) lie in that kernel, so their
      entries at its pivot columns are combinations of those at its free
      columns;
    - the class space at g takes only the columns of ins[g] at the pivot
      columns of kernel(g - s), which span its image.
    Neither changes a result: kernel_basis keeps the column order of the
    whole block, and the quotient depends on span(ins[g]) alone once its
    order is fixed.  That order, `linalg._fill_order`, visits the kernel
    basis sparse-first by the rows of the whole ins[g], read before
    clearing, so cleared and uncleared pieces pick the same
    representatives; it keeps the fill-in of the elimination, and with it
    the class map, small.  A piece taken modulo other maps shares the
    kernels, and so their clearing, but divides out its own maps with all
    their columns, in the same order.

    kernel(g) and reps(g) are kept per piece.  A piece that misses one
    inside `shared_eliminations()` first asks the scope's memo, keyed by
    the content of the whole q(g) for the kernel and of q(g) and ins[g]
    for the class space, and leaves there what it computes; the memo is
    dropped with the scope.  Shared kernels, representative lists and
    coordinate maps are read, never changed, by every caller."""

    def __init__(self, name, dims, outs, ins, step, error=ComplexError):
        self.name = name
        self.dims = dims
        self.outs = outs
        self.ins = ins
        self.error = error
        self.step = step
        self.index = None
        self.total = None
        self._pos = {}
        self._ker = {}
        self._zero = {}
        self._reps = {}
        self._coords = {}

    @classmethod
    def of_differential(cls, name, dims, diffs, step, error=ComplexError):
        """The cohomology of one differential: diffs[g] maps degree g to
        degree g + step."""
        return cls(name, dims, diffs, {g + step: m for g, m in diffs.items()}, step, error)

    def modulo(self, name, ins):
        """The same cocycles modulo the images of other maps into them.
        The kernels are shared, so each is eliminated once for both."""
        piece = _GradedPiece(name, self.dims, self.outs, ins, self.step, self.error)
        piece.index, piece.total = self.index, self.total
        piece._pos, piece._ker, piece._zero = self._pos, self._ker, self._zero
        return piece

    def dim(self, g):
        return self.dims.get(g, 0)

    def q(self, g):
        """The map out of degree g."""
        m = self.outs.get(g)
        return RatMatrix.zero(0, self.dim(g)) if m is None else m

    def _closed(self, g):
        """Whether q(g + step) q(g) = 0: the one product, made once per
        degree, that puts the image of q(g) in the cocycles at g + step."""
        if g not in self._zero:
            self._zero[g] = (self.q(g + self.step) * self.q(g)).is_zero()
        return self._zero[g]

    def kernel(self, g):
        """ker q(g), the cocycles at g, cleared with kernel(g + step) when
        the piece holds it (see the class docstring)."""
        if g not in self._ker:
            q = self.q(g)

            def make():
                held = self._ker.get(g + self.step)
                rows = _free_columns(held) if held is not None and self._closed(g) else None
                return kernel_basis(q, rows)

            self._ker[g] = _shared("ker", (q,), make)
        return self._ker[g]

    def reps(self, g):
        """Representatives of the classes at g, a complement of the image
        in the kernel, as the columns of one matrix (see `_class_space`)."""
        if g not in self._reps:
            if self.dim(g) == 0:
                self._reps[g], self._coords[g] = RatMatrix(0, 0), RatMatrix(0, 0)
            else:
                comp, self._coords[g] = _shared(
                    "cls", (self.q(g), self.ins.get(g)), lambda: self._class_space(g))
                self._reps[g] = comp.matrix()
        return self._reps[g]

    def _class_space(self, g):
        """The complement and coordinate map of ker q(g) / Im ins[g] from
        the columns of ins[g], as `linalg._kernel_quotient` makes them
        with the kernel basis visited in `linalg._fill_order` of the whole
        ins[g].  For the piece's own differential, its product
        q(g) ins[g] = 0 is `_closed(g - step)` and ins[g] is cleared (see
        the class docstring)."""
        q, ins, ker = self.q(g), self.ins.get(g), self.kernel(g)
        order = _fill_order(ker, ins)
        # a piece taken modulo other maps has ins[g] of its own
        if ins is None or ins is not self.outs.get(g - self.step):
            return _kernel_quotient(q, ker, ins, order)
        if not self._closed(g - self.step):
            raise SubspaceNotContained("sub is not inside ambient")
        held = self._ker.get(g - self.step)
        if held is not None:
            free = set(_free_columns(held))
            ins = ins.submatrix(range(ins.rows), [j for j in range(ins.cols) if j not in free])
        return _quotient_of_coords(ker, _coords_of_columns(ker, ins), order)

    def h_dim(self, g):
        return self.reps(g).cols

    def class_matrix(self, g, v):
        """The coordinates against reps(g) of the classes of the cocycles
        that are the columns of the matrix v, as the columns of one matrix.
        span(reps + image) = ker q(g), with the image inside the kernel by
        the one product that reps checked, so the one product q(g) v = 0 is
        the exact membership check of every column, and the coordinate map
        that the quotient factored once per degree, times v, gives every
        coordinate."""
        if not (self.q(g) * v).is_zero():
            raise self.error(f"vector is not a {self.name} cocycle class in degree {g}")
        self.reps(g)
        return self._coords[g] * v

    def class_coords(self, g, vec):
        """`class_matrix` of the one cocycle vec, a sparse vector."""
        return self.class_matrix(g, RatMatrix.from_columns([vec], self.dim(g))).columns()[0]

    def flat(self, g, m):
        """The columns of m, vectors at ghost g, in the flat coordinates."""
        idx = self.index.get(g, ())
        return RatMatrix.of_ints(self.total, m.cols,
                                 {(idx[i], j): x for (i, j), x in m.ints.items()}, m.den)

    def local(self, g, m):
        """The ghost-g rows of the flat columns of m, in the coordinates at
        g: the block of m on index[g]."""
        if g not in self._pos:
            self._pos[g] = {f: i for i, f in enumerate(self.index.get(g, ()))}
        pos = self._pos[g]
        return RatMatrix.of_ints(len(pos), m.cols, {(pos[i], j): x for (i, j), x in m.ints.items()
                                                    if i in pos}, m.den)


class CochainComplex:
    """Finite cochain complex: components k -> dimension, differentials
    d_k : C^k -> C^{k+1}.  d.d = 0 is checked exactly on construction."""

    def __init__(self, components, differentials):
        self.components = {k: int(d) for k, d in components.items() if d}
        self.differentials = {}
        for k, m in differentials.items():
            if m is not None and not (m.rows == 0 and m.cols == 0):
                self.differentials[k] = m
        self._validate()
        self.piece = _GradedPiece.of_differential(
            "cochain", self.components, self.differentials, 1)

    def _validate(self):
        for k, m in self.differentials.items():
            if m.cols != self.dim(k) or m.rows != self.dim(k + 1):
                raise ComplexError(f"differential d_{k} has shape {m.shape}, "
                                   f"expected {self.dim(k+1)}x{self.dim(k)}")
        for k in self.differentials:
            if k + 1 in self.differentials:
                if not (self.differentials[k + 1] * self.differentials[k]).is_zero():
                    raise ComplexError(f"d_{k+1} d_{k} != 0")

    def degrees(self):
        return sorted(self.components)

    def dim(self, k):
        return self.components.get(k, 0)

    def d(self, k):
        m = self.differentials.get(k)
        if m is None:
            return RatMatrix.zero(self.dim(k + 1), self.dim(k))
        return m

    def euler_characteristic(self):
        return sum((-1) ** k * d for k, d in self.components.items())

    def cohomology(self, k, variant="default"):
        """(dimension, representative cocycles) of H^k, cached per degree.

        `variant='alt'` sweeps the kernel basis in the opposite order when
        picking representatives; used to certify representative-independence
        of induced maps.
        """
        reps = self.piece.reps(k)
        if variant == "alt" and reps.cols:
            ker = self.piece.kernel(k)
            flip = range(ker.dim - 1, -1, -1)
            b, e = ker.matrix(), ker._left_inv()
            alt = Subspace._of(b.submatrix(range(b.rows), flip))
            alt._inv = e.submatrix(flip, range(e.cols))
            reps = quotient(alt, self.d(k - 1))[0].matrix()
        return reps.cols, reps

    def betti(self):
        return {k: self.cohomology(k)[0] for k in self.degrees()}

    def __repr__(self):
        dims = {k: self.dim(k) for k in self.degrees()}
        return f"CochainComplex({dims})"


class ChainMap:
    """Degree-preserving map of cochain complexes, one block per degree.
    Commutation with the differentials is checked exactly."""

    def __init__(self, source, target, blocks, check=True):
        self.source = source
        self.target = target
        self.blocks = dict(blocks)
        if check:
            self._validate()

    def _validate(self):
        for k in set(self.source.degrees()) | set(self.target.degrees()):
            f_k = self.block(k)
            f_k1 = self.block(k + 1)
            left = self.target.d(k) * f_k
            right = f_k1 * self.source.d(k)
            if left != right:
                raise ComplexError(f"chain map fails to commute with d at degree {k}")

    def block(self, k):
        m = self.blocks.get(k)
        if m is None:
            return RatMatrix.zero(self.target.dim(k), self.source.dim(k))
        return m


class ExactSequenceReport:
    """A finite sequence of spaces and maps that verifies its own exactness.

    nodes: list of (name, dim); maps[i]: nodes[i] -> nodes[i+1].  The
    sequence is treated as starting and ending at zero.  image(i), of the
    map into node i, is eliminated once and kept, so a phase that reads it
    off the sequence eliminates nothing again; the verdicts read only the
    images' dimensions (see `verify_exactness`), so no kernel is
    eliminated.  index maps a node's name to its position."""

    def __init__(self, nodes, maps):
        self.nodes = nodes
        self.maps = maps
        self.index = {name: i for i, (name, _) in enumerate(nodes)}
        self._im = {}
        self.verdicts = verify_exactness(self)  # verdicts[i] is node i+1

    def image(self, i):
        if i not in self._im:
            self._im[i] = image_basis(self.maps[i - 1]) if i \
                else Subspace.zero(self.nodes[0][1])
        return self._im[i]

    def exact_at(self, name):
        return self.verdicts[self.index[name] - 1]

    @property
    def exact(self):
        return all(self.verdicts)

    def summary(self):
        return {
            "nodes": [{"name": n, "dim": d} for n, d in self.nodes],
            "exact_at": {self.nodes[i + 1][0]: bool(v) for i, v in enumerate(self.verdicts)},
            "exact": self.exact,
        }

    def __repr__(self):
        chain = " -> ".join(f"{n}({d})" for n, d in self.nodes)
        return f"ExactSequence[{chain}] exact={self.exact}"


def verify_exactness(seq: ExactSequenceReport):
    """Exactness (Im = ker) at every interior node i of a sequence, by
    ranks: Im maps[i-1] lies in ker maps[i] exactly when the composite
    maps[i] maps[i-1] is zero, and then the two are equal exactly when
    dim Im maps[i-1] = dim node(i) - dim Im maps[i]."""
    return [(seq.maps[i] * seq.maps[i - 1]).is_zero()
            and seq.image(i).dim == seq.nodes[i][1] - seq.image(i + 1).dim
            for i in range(1, len(seq.nodes) - 1)]


def _check_pair(rel_inclusion: ChainMap, restriction: ChainMap):
    rel = rel_inclusion.source
    absc = rel_inclusion.target
    bdry = restriction.target
    if restriction.source is not absc:
        raise NotShortExact("restriction must start at the absolute complex")
    degrees = sorted(set(absc.degrees()) | set(rel.degrees()) | set(bdry.degrees()))
    for k in degrees:
        inc = rel_inclusion.block(k)
        res = restriction.block(k)
        if not (res * inc).is_zero():
            raise NotShortExact(f"restriction o inclusion nonzero in degree {k}")
        if kernel_basis(inc).dim != 0:
            raise NotShortExact(f"relative inclusion not injective in degree {k}")
        if image_basis(res).dim != bdry.dim(k):
            raise NotShortExact(f"restriction not surjective in degree {k}")
        if image_basis(inc) != kernel_basis(res):
            raise NotShortExact(f"sequence not exact in the middle in degree {k}")
    return rel, absc, bdry, degrees


def _connecting_block(rel, absc, rel_inclusion, restriction, k, bdry_reps):
    """Matrix of the zig-zag H^k(bdry) -> H^{k+1}(rel) against the given
    boundary representatives, the columns of bdry_reps."""
    x = solve(restriction.block(k), bdry_reps)
    if x is None:
        raise NotShortExact("restriction not surjective on a cocycle")
    z = solve(rel_inclusion.block(k + 1), absc.d(k) * x)
    if z is None:
        raise ComplexError("zig-zag failed: dx is not a relative cochain")
    return rel.piece.class_matrix(k + 1, z)


def les_of_pair(rel_inclusion: ChainMap, restriction: ChainMap):
    """Long exact sequence of the pair from the per-degree short exact
    sequence rel -> abs -> bdry, with the connecting map built by zig-zag.
    Exactness is verified at every node."""
    rel, absc, bdry, degrees = _check_pair(rel_inclusion, restriction)
    kmin, kmax = degrees[0], degrees[-1]
    nodes = []
    maps = []
    for k in range(kmin, kmax + 1):
        nodes.append((f"H^{k}(rel)", rel.cohomology(k)[0]))
        maps.append(absc.piece.class_matrix(k, rel_inclusion.block(k) * rel.cohomology(k)[1]))
        nodes.append((f"H^{k}(abs)", absc.cohomology(k)[0]))
        maps.append(bdry.piece.class_matrix(k, restriction.block(k) * absc.cohomology(k)[1]))
        nodes.append((f"H^{k}(bdry)", bdry.cohomology(k)[0]))
        maps.append(_connecting_block(rel, absc, rel_inclusion, restriction, k,
                                      bdry.cohomology(k)[1]))
    nodes.append((f"H^{kmax+1}(rel)", rel.cohomology(kmax + 1)[0]))
    return ExactSequenceReport(nodes, maps)


def connecting_map(rel_inclusion: ChainMap, restriction: ChainMap, k):
    """Connecting homomorphism H^k(bdry) -> H^{k+1}(rel).

    Recomputed with a second choice of representatives; the two matrices must
    agree after change of basis, certifying independence of choices.
    """
    rel, absc, bdry, _ = _check_pair(rel_inclusion, restriction)
    beta = _connecting_block(rel, absc, rel_inclusion, restriction, k,
                             bdry.cohomology(k)[1])
    b_alt = bdry.cohomology(k, "alt")[1]
    beta_alt = _connecting_block(rel, absc, rel_inclusion, restriction, k, b_alt)
    # express alt basis in the default basis and compare
    if beta * bdry.piece.class_matrix(k, b_alt) != beta_alt:
        raise ComplexError("connecting map depends on representative choice")
    return beta
