"""Exact rational sparse linear algebra.

Everything downstream (cohomology, moduli spaces, pairings) reduces to the
kernel/image/quotient/orthogonality operations in this module.

A `RatMatrix` is stored in integers: a dict (row, col) -> nonzero integer
numerator, in storage order, and one positive denominator for the whole
matrix, the least common one, so equal matrices have equal storage.
Products, sums, scaling, transposes, blocks, comparison and the rows that
the eliminations read all run on that storage and build no Fraction; the
builders of the other modules write integers too.  A matrix shows its
entries as Fractions (`entries`, `[i, j]`, `sparse_rows`, `columns`,
`matvec`'s result) only to a caller that reads them.

A `Subspace` holds its basis the same way, as one `RatMatrix` of columns,
and so does every list of vectors that the engine maps: a map applied to
a basis is one product.  Kernels, images, spanning subsets and
complements are primitive integer columns (denominator 1).  `basis` shows
the columns as Fraction dicts, built when it is read.  Only single
vectors handed in from outside (`coords`, `contains`, `matvec`, `solve`
of one vector) are dicts of Fractions.

There is one elimination core, `_echelon`: fraction-free (integer row
combinations after clearing denominators) Gauss-Jordan with a fixed pivot
rule, so all bases are deterministic across runs.  Kernels, images,
solutions, spanning subsets, quotients, left inverses and ranks all read
its output.  It updates one copy of the rows in place, and a column ->
rows index of the columns not yet visited finds each pivot and the rows
it updates, so no work is done on a column once it is visited.

Kernels and images eliminate in a static sparse-first order (the columns
of the system by ascending nonzero count, ties by index), which keeps
fill-in down; spanning subsets, solutions and left inverses keep index
order, which defines what they return, and class spaces take their
caller's order (below).  Within a column the pivot row is chosen by
Markowitz's rule: smallest |pivot|, then the shortest row.
With the column order fixed, the pivot columns and each pivot column's
reduced row (up to scale, on the visited columns) do not depend on that
choice, so kernels, solutions, spanning subsets, quotients and square
inverses do not either; only the columns an image keeps and non-square
left inverses may.  A kernel vector is read off the reduced rows as a
primitive integer vector.

Each question about spans costs at most one elimination, in integers:
- A `Subspace` caches one left inverse E of its basis B (E B = I), a
  `RatMatrix`.  A kernel sets it from its free columns and
  `Subspace.full` from the identity, so neither is ever eliminated.
  `coords` and `contains` apply it to the vector cleared to integers and
  check the candidate as an integer identity; only the coordinates that
  `coords` returns become Fractions.
- Containment of a subspace S in one with a left inverse is the one
  identity B (E S) = S; without one it is a rank count: one
  `_pivot_columns` of both bases.  `==` asks the side that already holds
  a left inverse.
- A quotient is one elimination of the sub vectors' coordinates in its
  ambient space, as rows, with no identity block, visiting the ambient
  basis in reverse index order unless the caller of `_kernel_quotient`
  or `_quotient_of_coords` gives another; the complement is the greedy
  extension of the sub's span in the reverse of that order, and the
  class map is read off the reduced rows as a kernel is.  The
  representatives are a free choice, so the order is the one that keeps
  fill-in down where the caller knows it: a class space of a
  `_GradedPiece` passes `_fill_order`, sparse-first by its in-map's rows.
  It accepts any spanning list of the sub, so a class space ker q / Im i
  takes the columns of i and no image basis.  The coordinates of the sub
  vectors are the one product E S, checked by B (E S) = S; for a kernel
  ambient there is no check to make: Im i lies in ker q exactly when the
  one product q i is zero, and E i reads i's rows at the kernel's free
  columns.
- The complement under a symmetric or antisymmetric pairing is one
  kernel, since its left and right complements coincide.
- A kernel asked with rows that span the matrix's row space (the caller
  knows which) eliminates only those rows, in the column order of the
  whole matrix, so the basis is the whole matrix's.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


class LinalgError(Exception):
    pass


class DimensionMismatch(LinalgError):
    pass


class SubspaceNotContained(LinalgError):
    pass


class NotTransversal(LinalgError):
    pass


class NotLagrangian(LinalgError):
    pass


def _rational(v):
    """v as an int or a Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _to_ints(items):
    """(ints, den) for pairs (key, rational value): the nonzero values as
    integer numerators over their least common denominator, in the order
    given."""
    vals = {}
    for k, v in items:
        v = _rational(v)
        if v:
            vals[k] = v
    den = lcm(*(v.denominator for v in vals.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in vals.items()}, den


def _check_keys(keys, rows, cols):
    """DimensionMismatch unless every (row, col) key lies in the shape."""
    for i, j in keys:
        if not (0 <= i < rows and 0 <= j < cols):
            raise DimensionMismatch(f"index {(i, j)} out of shape {(rows, cols)}")


class RatMatrix:
    """Sparse rational matrix, stored in integers: `ints` maps (row, col)
    to a nonzero integer numerator, in storage order, and entry (i, j) is
    ints[(i, j)] / den, with `den` the least common denominator of the
    entries (1 for an integer or empty matrix).  Zero entries are never
    stored.  Both are read-only outside this class; `of_ints` builds a
    matrix from them, and `[i, j] = v` and `add_block` change one in place.

    `entries` is the same map with Fraction values.  It is built when it
    is read, kept until the next write, and is itself read-only.
    """

    __slots__ = ("rows", "cols", "ints", "den", "_entries", "_by_col")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.ints = {}
        self.den = 1
        self._entries = None
        self._by_col = None
        if entries:
            _check_keys(entries, rows, cols)
            self.ints, self.den = _to_ints(entries.items())

    @classmethod
    def of_ints(cls, rows, cols, ints, den=1):
        """The matrix with entries ints[key] / den, for a dict of nonzero
        integers and a positive integer den; den is reduced to the least
        common one.  ints is kept, not copied."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {k: x // g for k, x in ints.items()}
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.ints = ints
        m.den = den
        m._entries = None
        m._by_col = None
        return m

    @property
    def entries(self):
        """(row, col) -> Fraction for the nonzero entries, in storage order:
        a read-only view, built on first read after a write."""
        if self._entries is None:
            den = self.den
            self._entries = {k: Fraction(x, den) for k, x in self.ints.items()}
        return MappingProxyType(self._entries)

    @property
    def nnz(self):
        """The number of nonzero entries."""
        return len(self.ints)

    def __getitem__(self, ij):
        return Fraction(self.ints.get(ij, 0), self.den)

    def __setitem__(self, ij, v):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatch(f"index {ij} out of shape {self.shape}")
        v = Fraction(v)
        self._entries = self._by_col = None
        ints = self.ints
        if not v:
            if ints.pop(ij, None) is not None:
                self._reduce()
            return
        q = v.denominator
        if self.den % q:
            den = lcm(self.den, q)
            s = den // self.den
            self.ints = ints = {k: x * s for k, x in ints.items()}
            self.den = den
        replaced = ij in ints
        ints[ij] = v.numerator * (self.den // q)
        if replaced:
            self._reduce()

    def _reduce(self):
        """Bring den down to the least common denominator, in place, after
        an entry was replaced or removed."""
        if self.den != 1:
            g = gcd(self.den, *self.ints.values())
            if g != 1:
                self.den //= g
                self.ints = {k: x // g for k, x in self.ints.items()}

    def add_block(self, r0, c0, block, scale=1):
        """Add scale * block in place, block's (0, 0) entry at (r0, c0).
        Existing keys keep their place and new ones follow in block's
        storage order, as adding entry by entry would leave them."""
        s = _rational(scale)
        if not s or not block.ints:
            return
        corner = (r0 + block.rows - 1, c0 + block.cols - 1)
        if not (corner[0] < self.rows and corner[1] < self.cols):
            raise DimensionMismatch(f"index {corner} out of shape {self.shape}")
        self._entries = self._by_col = None
        q = block.den * s.denominator
        den = lcm(self.den, q)
        ints = self.ints
        if den != self.den:
            sa = den // self.den
            self.ints = ints = {k: x * sa for k, x in ints.items()}
            self.den = den
        sb = s.numerator * (den // q)
        for (i, j), x in block.ints.items():
            key = (r0 + i, c0 + j)
            y = ints.get(key, 0) + sb * x
            if y:
                ints[key] = y
            else:
                del ints[key]
        self._reduce()

    @property
    def shape(self):
        return (self.rows, self.cols)

    def copy(self):
        return RatMatrix.of_ints(self.rows, self.cols, dict(self.ints), self.den)

    @staticmethod
    def identity(n):
        return RatMatrix.of_ints(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(rows, cols):
        return RatMatrix(rows, cols)

    @staticmethod
    def from_rows(rows, ncols=None):
        """Build from a list of dense or sparse rows; a nonzero entry off
        the stated shape raises DimensionMismatch."""
        rows = list(rows)
        items = []
        width = ncols or 0
        for i, r in enumerate(rows):
            if isinstance(r, dict):
                items.extend(((i, j), v) for j, v in r.items())
                if r:
                    width = max(width, max(r) + 1)
            else:
                items.extend(((i, j), v) for j, v in enumerate(r))
                width = max(width, len(r))
        ints, den = _to_ints(items)
        ncols = width if ncols is None else ncols
        _check_keys(ints, len(rows), ncols)
        return RatMatrix.of_ints(len(rows), ncols, ints, den)

    @staticmethod
    def from_columns(cols, nrows):
        """Build from a list of sparse columns; a nonzero entry off the
        stated shape raises DimensionMismatch."""
        ints, den = _to_ints(((i, j), v) for j, c in enumerate(cols) for i, v in c.items())
        _check_keys(ints, nrows, len(cols))
        return RatMatrix.of_ints(nrows, len(cols), ints, den)

    def sparse_rows(self):
        """The rows as sparse vectors of Fractions."""
        rows = [dict() for _ in range(self.rows)]
        den = self.den
        for (i, j), x in self.ints.items():
            rows[i][j] = Fraction(x, den)
        return rows

    def columns(self):
        """The columns as sparse vectors of Fractions, each in storage
        order."""
        cols = [dict() for _ in range(self.cols)]
        den = self.den
        for (i, j), x in self.ints.items():
            cols[j][i] = Fraction(x, den)
        return cols

    def int_rows(self):
        """The rows of den * self as sparse integer vectors, each in
        storage order."""
        rows = [dict() for _ in range(self.rows)]
        for (i, j), x in self.ints.items():
            rows[i][j] = x
        return rows

    def submatrix(self, rows, cols):
        """The block on the given row and column indices, in their order."""
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        ints = {(rpos[i], cpos[j]): x for (i, j), x in self.ints.items()
                if i in rpos and j in cpos}
        return RatMatrix.of_ints(len(rows), len(cols), ints, self.den)

    def transpose(self):
        return RatMatrix.of_ints(self.cols, self.rows,
                                 {(j, i): x for (i, j), x in self.ints.items()}, self.den)

    def matvec(self, v):
        """M v, with v cleared to n / d and summed by `_int_matvec`; each
        nonzero row becomes one Fraction."""
        n, d = _clear(v)
        d *= self.den
        return {i: Fraction(s, d) for i, s in self._int_matvec(n).items()}

    def _int_matvec(self, n):
        """The numerators of (den * M) n for an integer vector n with no
        zero entry, zero rows dropped.  It visits only the entries in the
        columns of n's support, in storage order, so the result, down to
        the order of its keys, is the one a scan of every entry gives.  The
        positions of each column's entries are indexed on first use."""
        if self._by_col is None:
            keys = list(self.ints)
            by_col = {}
            for p, (_, j) in enumerate(keys):
                col = by_col.get(j)
                if col is None:
                    by_col[j] = col = array("l")
                col.append(p)
            self._by_col = (keys, list(self.ints.values()), by_col)
        keys, nums, by_col = self._by_col
        touched = []
        for j in n:
            if j in by_col:
                touched.extend(by_col[j])
        touched.sort()
        out = {}
        for p in touched:
            i, j = keys[p]
            s = out.get(i, 0) + nums[p] * n[j]
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return out

    def __mul__(self, other):
        """The product, scanning self's entries in storage order against
        the rows of other, so the result's keys come in the order of their
        first term.  It runs in integers, over the product of the two
        denominators."""
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} * {other.shape}")
            by_row = [[] for _ in range(other.rows)]
            for (k, j), b in other.ints.items():
                by_row[k].append((j, b))
            acc = {}
            get = acc.get
            for (i, k), a in self.ints.items():
                for j, b in by_row[k]:
                    key = (i, j)
                    acc[key] = get(key, 0) + a * b
            return RatMatrix.of_ints(self.rows, other.cols,
                                     {key: x for key, x in acc.items() if x},
                                     self.den * other.den)
        return NotImplemented

    def _combine(self, other, sign):
        """self + sign * other: self's keys first, in their order, then
        other's new ones in its order."""
        if self.shape != other.shape:
            op = "+" if sign > 0 else "-"
            raise DimensionMismatch(f"{self.shape} {op} {other.shape}")
        den = lcm(self.den, other.den)
        sa = den // self.den
        ints = dict(self.ints) if sa == 1 else {k: x * sa for k, x in self.ints.items()}
        sb = sign * (den // other.den)
        for k, x in other.ints.items():
            y = ints.get(k, 0) + sb * x
            if y:
                ints[k] = y
            else:
                del ints[k]
        return RatMatrix.of_ints(self.rows, self.cols, ints, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        c = _rational(c)
        if not c:
            return RatMatrix(self.rows, self.cols)
        n = c.numerator
        return RatMatrix.of_ints(self.rows, self.cols,
                                 {k: n * x for k, x in self.ints.items()},
                                 self.den * c.denominator)

    def is_zero(self):
        return not self.ints

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.shape == other.shape
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {self.nnz} nonzero)"

    def rank(self):
        return stacked_rank(self)


def stacked_rank(*blocks):
    """The rank of the matrices (all with the same columns) stacked on top
    of each other, from one elimination of their integer rows; each block
    is scaled by its denominator, which keeps the rank."""
    rows = [r for m in blocks for r in m.int_rows()]
    return len(_echelon(_primitive_rows(rows))[0])


# ---------------------------------------------------------------------------
# elimination core (integer, fraction-free)


def _primitive_rows(rows):
    """Integer rows with their content divided out, in place: each row
    becomes the primitive integer vector that is a positive multiple of
    it."""
    for i, r in enumerate(rows):
        if r:
            g = gcd(*r.values())
            if g > 1:
                rows[i] = {j: x // g for j, x in r.items()}
    return rows


def _echelon(rows, col_order=None):
    """Integer Gauss-Jordan elimination (fraction-free row combinations).

    Deterministic pivot rule: visit columns in `col_order` (default
    increasing); among unused rows with a nonzero entry in the current
    column pick the one with the smallest absolute value there, ties broken
    by the fewest nonzeros in the row, then by row index.  The tie break is
    Markowitz's min (r - 1)(c - 1) with the column fixed: the row whose
    elimination fills in least.  Returns (pivots, rows); pivots is a
    list of (row, col) in elimination order, and each pivot column is zero
    in every other row.

    A column -> rows index of the columns not yet visited lets the pivot
    search and the elimination visit only the rows that hold the current
    column; a column's entry is taken out when it is visited, so fill-in
    and cancellation on visited columns update nothing.  A single unused
    holder is the pivot with no key built.  A row r with entry rv against
    the pivot pv loses its entry in the pivot column and is updated in
    place to (pv/g) r - (rv/g) prow on the other columns, g = gcd(pv, rv),
    and then divided by its content: the same primitive row, with the same
    key order, as pv r - rv prow gives, from smaller products.  The
    caller's rows are copied once and never changed.
    """
    rows = [dict(r) for r in rows]
    holders = {}
    for i, r in enumerate(rows):
        for j in r:
            at = holders.get(j)
            if at is None:
                holders[j] = {i}
            else:
                at.add(i)
    if col_order is not None:
        order = list(col_order)
    else:
        order = range(max(holders) + 1 if holders else 0)
    used = set()
    pivots = []
    for col in order:
        at = holders.pop(col, None)
        if not at:
            continue
        unused = [i for i in at if i not in used]
        if not unused:
            continue
        if len(unused) == 1:
            p = unused[0]
        else:
            p = min(unused, key=lambda i: (abs(rows[i][col]), len(rows[i]), i))
        used.add(p)
        pivots.append((p, col))
        at.discard(p)
        if not at:
            continue
        prow = rows[p]
        pv = prow[col]
        rest = [(j, v) for j, v in prow.items() if j != col]
        for i in at:
            r = rows[i]
            rv = r.pop(col)
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            if a != 1:
                for j in r:
                    r[j] *= a
            for j, v in rest:
                old = r.get(j)
                if old is None:
                    r[j] = -b * v
                    if j in holders:
                        holders[j].add(i)
                    continue
                s = old - b * v
                if s:
                    r[j] = s
                else:
                    del r[j]
                    if j in holders:
                        holders[j].discard(i)
            g = gcd(*r.values())
            if g > 1:
                for j in r:
                    r[j] //= g
    return pivots, rows


def _free_vectors(pivots, red, ncols):
    """Per free column f of a Gauss-Jordan reduction (pivots, red), in
    increasing order, the vector of its row space's annihilator that is 1
    at f and 0 at the other free columns, in integers: (f, ints).

    After Gauss-Jordan elimination each pivot row holds its pivot and free
    columns only, so the vector is read off without back-substitution.
    With pivot pv_c and entry x_c at f in the row of pivot column c, it is
    1 at f and -x_c / pv_c at c; scaled by the lcm L of the pv_c it
    touches, ints is L at f and -x_c * (L / pv_c) at c."""
    pivot_cols = {c for _, c in pivots}
    hits = {j: [] for j in range(ncols) if j not in pivot_cols}
    for r, c in pivots:
        row = red[r]
        pv = row[c]
        for j, x in row.items():
            if j != c:
                hits[j].append((c, x, pv))
    out = []
    for f, at in hits.items():
        scale = lcm(*(pv for _, _, pv in at))
        ints = {f: scale}
        for c, x, pv in at:
            ints[c] = -x * (scale // pv)
        out.append((f, ints))
    return out


def _kernel_int(rows, ncols, col_order=None):
    """Kernel basis of the integer row system, as the columns of an integer
    matrix (ncols x number of free columns), and those free columns, in
    increasing order.  Column k is the `_free_vectors` vector of free
    column k, so it is the only one nonzero there, divided by its gcd and
    by the sign of its lowest index: a primitive integer vector."""
    pivots, red = _echelon(rows, col_order)
    ints, free = {}, []
    for f, v in _free_vectors(pivots, red, ncols):
        g = gcd(*v.values())
        if v[min(v)] < 0:
            g = -g
        k = len(free)
        ints.update(((j, k), x // g) for j, x in v.items())
        free.append(f)
    return RatMatrix.of_ints(ncols, len(free), ints), free


def _sparse_first(counts):
    """The indices of `counts` by ascending count, ties by index: the static
    fill-reducing column order (Markowitz's rule with the row counts left
    out, fixed before the elimination starts)."""
    return sorted(range(len(counts)), key=counts.__getitem__)


def _pivot_columns(m):
    """Indices of the columns of m that are independent of the columns
    before them: the pivot columns of one elimination in column order.
    This set does not depend on the row-pivot rule."""
    rows = _primitive_rows([r for r in m.int_rows() if r])
    pivots, _ = _echelon(rows, col_order=range(m.cols))
    return sorted(c for _, c in pivots)


def _primitive_columns(m, keep):
    """The columns keep of m, in that order, each scaled to the primitive
    integer vector whose lowest entry is positive, over denominator 1.
    Every column in keep must be nonzero."""
    pos = {j: k for k, j in enumerate(keep)}
    by_col = {}
    for (i, j), x in m.ints.items():
        k = pos.get(j)
        if k is not None:
            by_col.setdefault(k, []).append((i, x))
    ints = {}
    for k, col in sorted(by_col.items()):
        g = gcd(*(x for _, x in col))
        if min(col)[1] < 0:
            g = -g
        ints.update(((i, k), x // g) for i, x in col)
    return RatMatrix.of_ints(m.rows, len(keep), ints)


def _hstack(rows, mats):
    """The matrices, each with the given number of rows, side by side."""
    out = RatMatrix(rows, sum(m.cols for m in mats))
    c0 = 0
    for m in mats:
        out.add_block(0, c0, m)
        c0 += m.cols
    return out


def _vstack(cols, mats):
    """The matrices, each with the given number of columns, on top of each
    other."""
    return _hstack(cols, [m.transpose() for m in mats]).transpose()


def _clear(v):
    """(n, d): an integer vector n and a positive integer d with v = n / d,
    zero entries dropped."""
    v = {j: x for j, x in v.items() if x}
    d = lcm(*(x.denominator for x in v.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in v.items()}, d


class Subspace:
    """A subspace of Q^ambient_dim, spanned by the independent columns of
    one RatMatrix (ambient_dim x dim): its basis.  `matrix()` is that
    matrix, read-only like a matrix's storage, and `basis` shows its
    columns as sparse dicts of Fractions, built on each read, so that
    changing the list read changes nothing."""

    __slots__ = ("ambient_dim", "_cols", "_inv")

    def __init__(self, ambient_dim, basis, check=True):
        self.ambient_dim = ambient_dim
        self._cols = RatMatrix.from_columns(basis, ambient_dim)
        self._inv = None
        if check and self._cols.cols:
            try:
                self._left_inv()
            except LinalgError:
                raise LinalgError("basis vectors are linearly dependent") from None

    @classmethod
    def _of(cls, cols):
        """The subspace on the independent columns of the RatMatrix cols,
        kept as given: the internal constructors' path, with no
        independence check."""
        s = cls.__new__(cls)
        s.ambient_dim = cols.rows
        s._cols = cols
        s._inv = None
        return s

    def _left_inv(self):
        """The cached left inverse E of the basis matrix B, E B = I (a
        RatMatrix); the one factorization behind the independence check,
        `coords`, `contains` and `quotient`, and behind `contains_subspace`
        and `==` once it exists.  `kernel_basis` and `full` set it without
        an elimination."""
        if self._inv is None:
            self._inv = _left_inverse(self._cols)
        return self._inv

    def _solve(self, v):
        """(y, d) with y[k] / d the k-th coordinate of v; y is None when v
        is off the span.

        With v = n / d0 in integers, y = (den E) n is the only candidate,
        over d = d0 * den(E), and it is kept when B y / d == v, that is
        when (den B) y == n * den(B) * den(E), an integer identity."""
        n, d = _clear(v)
        inv, b = self._left_inv(), self._cols
        y = inv._int_matvec(n)
        s = b.den * inv.den
        back = b._int_matvec(y)
        return (y if back == {j: x * s for j, x in n.items()} else None), d * inv.den

    @property
    def dim(self):
        return self._cols.cols

    @property
    def basis(self):
        """The basis vectors as sparse dicts of Fractions, built on read."""
        return self._cols.columns()

    @staticmethod
    def zero(ambient_dim):
        return Subspace._of(RatMatrix(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim):
        """Q^ambient_dim in its unit basis, which is its own left inverse."""
        s = Subspace._of(RatMatrix.identity(ambient_dim))
        s._inv = s._cols
        return s

    def matrix(self):
        return self._cols

    def coords(self, v):
        """Coordinates of v in the basis, or None when v is off the span.
        Exact: the integer check in `_solve` comes first, and only the
        coordinates returned are built as Fractions."""
        y, d = self._solve(v)
        if y is None:
            return None
        return {k: Fraction(y[k], d) for k in sorted(y)}

    def contains(self, v):
        return self._solve(v)[0] is not None

    def _coords_of(self, m):
        """The coordinates of the columns of m in the basis B, as the
        columns of one matrix, or None when one of them is off the span:
        Y = E m with the left inverse E is the only candidate, and B Y = m
        decides."""
        y = self._left_inv() * m
        return y if self._cols * y == m else None

    def contains_subspace(self, other):
        """other inside self.  With a left inverse E at hand, it is the one
        identity B (E S) = S on the bases B of self and S of other; without
        one, a rank count: other lies in self exactly when no column of
        other is a pivot column of [B | S], i.e. when there are self.dim
        pivots."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if not other.dim:
            return True
        if self._inv is None:
            both = _hstack(self.ambient_dim, [self._cols, other._cols])
            return len(_pivot_columns(both)) == self.dim
        return self._coords_of(other._cols) is not None

    def sum(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return column_span(_hstack(self.ambient_dim, [self._cols, other._cols]))

    def intersect(self, other):
        # v = A x = B y: kernel of the column-glued system [A | -B]
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        na, nb = self.dim, other.dim
        if na == 0 or nb == 0:
            return Subspace.zero(self.ambient_dim)
        system = _hstack(self.ambient_dim, [self._cols, other._cols.scale(-1)])
        ker, _ = _kernel_int(_primitive_rows(system.int_rows()), na + nb)
        return column_span(self._cols * ker.submatrix(range(na), range(ker.cols)))

    def __eq__(self, other):
        """Equal spans: equal dimensions and one containment, asked of the
        side that already holds a left inverse, if either does."""
        if not (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim):
            return False
        if self._inv is None and other._inv is not None:
            return other.contains_subspace(self)
        return self.contains_subspace(other)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def column_span(columns, ambient_dim=None):
    """Deterministic independent subset spanning the given columns, a
    RatMatrix or a list of sparse vectors in Q^ambient_dim: the pivot
    columns, each as a primitive integer vector whose lowest entry is
    positive."""
    if not isinstance(columns, RatMatrix):
        columns = RatMatrix.from_columns(columns, ambient_dim)
    return Subspace._of(_primitive_columns(columns, _pivot_columns(columns)))


def _counts(m: RatMatrix, axis):
    """The number of nonzeros in each row (axis 0) or column (axis 1)."""
    counts = [0] * m.shape[axis]
    for ij in m.ints:
        counts[ij[axis]] += 1
    return counts


def kernel_basis(m: RatMatrix, rows=None) -> Subspace:
    """Basis of {v : m v = 0}, one primitive integer vector per free column
    in increasing order, and its left inverse.

    The elimination visits the columns of m sparse-first (see
    `_sparse_first`), which keeps fill-in down.  Each basis vector is the
    only one nonzero at its free column f_k, so row k of the left inverse
    is the single entry 1 / basis[k][f_k] at f_k; it is set here, and
    `coords`, `contains`, `contains_subspace` and `==` on a kernel need no
    elimination.

    rows, when given, lists rows of m that span m's row space: only they
    are eliminated.  The column order stays that of all of m, and with it
    fixed the reduced rows depend on the row space alone, so the free
    columns and the basis are those of m."""
    ints = m.int_rows()
    if rows is not None:
        ints = [ints[i] for i in rows]
    ker, free = _kernel_int(_primitive_rows(ints), m.cols, _sparse_first(_counts(m, 1)))
    s = Subspace._of(ker)
    leads = [ker.ints[(f, k)] for k, f in enumerate(free)]
    den = lcm(*leads)
    s._inv = RatMatrix.of_ints(len(free), m.cols,
                               {(k, f): den // x for k, (f, x) in enumerate(zip(free, leads))},
                               den)
    return s


def _free_columns(ker):
    """The free columns of a `kernel_basis` result, in increasing order:
    row k of its left inverse is one entry, at the k-th of them."""
    return [j for _, j in ker._inv.ints]


def _fill_order(ker, m=None):
    """The order in which a quotient of the `kernel_basis` result ker by
    the columns of m visits ker's basis: k by ascending count of m's
    nonzeros in row f_k, the k-th free column, ties by descending k.
    Row k of ker's coordinates of m is m's row f_k, so this is the
    sparse-first order of that elimination; the ties keep the default's
    direction.  With no m there is nothing to order by: None."""
    if m is None:
        return None
    counts = _counts(m, 0)
    free = _free_columns(ker)
    return sorted(range(ker.dim), key=lambda k: (counts[free[k]], -k))


def image_basis(m: RatMatrix) -> Subspace:
    """Basis of the column space of m: the columns of m that are pivot rows
    of one elimination of m's transpose, each as a primitive integer
    vector whose lowest entry is positive.  That elimination visits the
    rows of m sparse-first (see `_sparse_first`)."""
    piv, _ = _echelon(_primitive_rows(m.transpose().int_rows()),
                      _sparse_first(_counts(m, 0)))
    return Subspace._of(_primitive_columns(m, sorted(r for r, _ in piv)))


def solve(m: RatMatrix, b):
    """One solution x of m x = b, or None.  b is a sparse vector, answered
    by one, or a RatMatrix of columns, answered by the matrix X with
    m X = b from one elimination of m augmented by all of them (None when
    one column has no solution).  The elimination visits m's columns in
    index order and never an augmented one, so the pivot columns are m's,
    and each solution is the one with free unknowns 0: the one its column
    alone would get."""
    if not isinstance(b, RatMatrix):
        x = solve(m, RatMatrix.from_columns([b], m.rows))
        return None if x is None else x.columns()[0]
    if b.rows != m.rows:
        raise DimensionMismatch(f"{m.shape} x = {b.shape}")
    # the rows of [m | b] times both denominators
    aug = m.int_rows()
    if b.den != 1:
        aug = [{j: x * b.den for j, x in r.items()} for r in aug]
    for (i, t), x in b.ints.items():
        aug[i][m.cols + t] = x * m.den
    pivots, red = _echelon(_primitive_rows(aug), col_order=range(m.cols))
    # Gauss-Jordan leaves no other pivot column in a pivot row, so each
    # pivot unknown is read off its own row
    den = lcm(*(red[r][c] for r, c in pivots))
    ints = {}
    for r, c in pivots:
        row = red[r]
        s = den // row[c]
        ints.update(((c, j - m.cols), x * s) for j, x in row.items() if j >= m.cols)
    x = RatMatrix.of_ints(m.cols, b.cols, ints, den)
    return x if m * x == b else None


def quotient(ambient: Subspace, sub):
    """Complement C with span(sub) + C = ambient, plus its coordinate map:
    the C.dim x ambient_dim matrix sending each vector of ambient to the
    coordinates of its class modulo span(sub) in the basis of C.  sub is a
    Subspace, or a RatMatrix or a list of vectors whose columns span it;
    dependent and zero vectors are allowed.  On vectors outside ambient
    the map means nothing, so callers check membership first.  The
    projection that kills sub and fixes C pointwise is C.matrix() * coords.

    The coordinates of the sub vectors are `ambient._coords_of`, which
    also decides that they lie in ambient.  The rest is
    `_quotient_of_coords`.
    """
    if isinstance(sub, Subspace):
        sub = sub.matrix()
    elif not isinstance(sub, RatMatrix):
        sub = RatMatrix.from_columns(sub, ambient.ambient_dim)
    if sub.rows != ambient.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    ys = ambient._coords_of(sub)
    if ys is None:
        raise SubspaceNotContained("sub is not inside ambient")
    return _quotient_of_coords(ambient, ys)


def _kernel_quotient(q, ker, m, order=None):
    """quotient(ker, columns of m) for ker = kernel_basis(q), with no
    check against the basis, visiting ker's basis in the `order` of
    `_quotient_of_coords` (None: descending index).  A column lies in ker
    exactly when q kills it, so membership is the one product q m = 0
    (SubspaceNotContained otherwise), and the coordinates are
    `_coords_of_columns`.  m None is the map from the zero space."""
    if m is not None and not (q * m).is_zero():
        raise SubspaceNotContained("sub is not inside ambient")
    return _quotient_of_coords(ker, None if m is None else _coords_of_columns(ker, m), order)


def _coords_of_columns(space, m):
    """The matrix whose column j is space.coords of column j of m: the one
    product E m with space's left inverse E.  Every column must lie in
    space, which the caller has checked.  On a kernel or `Subspace.full`
    each row of E is a single entry, so E m reads m's rows at the free
    columns."""
    return space._left_inv() * m


def _unread(m, error):
    """The columns that m does not read, in increasing order, when each row
    of m is a single +-1 on a column of its own; raises error otherwise.
    Such an m is a coordinate projection: m m^T = I, and ker m is spanned
    by the unit vectors of the unread columns."""
    read = set()
    for row in m.int_rows():
        if len(row) != 1 or row.keys() <= read or abs(next(iter(row.values()))) != m.den:
            raise error
        read.update(row)
    return [j for j in range(m.cols) if j not in read]


def _unit_columns(rows, n):
    """The n x len(rows) matrix whose column k is the unit vector at
    rows[k]."""
    return RatMatrix.of_ints(n, len(rows), {(j, k): 1 for k, j in enumerate(rows)})


def _quotient_of_coords(ambient, ys, order=None):
    """The complement and coordinate map of `quotient`, from the sub
    vectors' coordinates in ambient's basis: the columns of the RatMatrix
    ys (None for no sub vector), each one up to a positive scale.

    One elimination of the columns of ys as integer rows (m = ambient.dim
    columns) visits the columns in the caller's order o_1, ..., o_m of
    all of 0 .. m-1, by default the reverse index order m-1, ..., 0.
    Column o_i is a pivot exactly when the rows projected onto o_1, ...,
    o_i have larger rank than projected onto o_1, ..., o_i-1, that is when
    e_o_i lies in span(y) + span(e_o_i+1 .. e_o_m); so C, the ambient
    basis vectors at the other (free) columns, is the greedy extension of
    sub's span by ambient's basis in the reverse of the order (index order
    by default).  The class map F is 0 on span(y) and fixes each free unit
    vector, so its row at free column f is the `_free_vectors` vector of f
    read off the reduced rows; times ambient's left inverse E it is the
    coordinate map on Q^ambient_dim.  For a fixed order both depend on
    span(sub) only, not on the vectors that span it."""
    rows = [] if ys is None else [r for r in ys.transpose().int_rows() if r]
    m = ambient.dim
    pivots, red = _echelon(rows, range(m - 1, -1, -1) if order is None else order)
    free = _free_vectors(pivots, red, m)
    # row k of F is v / v[f] for the free vector (f, v), all over their lcm
    den = lcm(*(v[f] for f, v in free))
    fmap = RatMatrix.of_ints(len(free), m, {(k, c): u * (den // v[f])
                                            for k, (f, v) in enumerate(free)
                                            for c, u in v.items()}, den)
    cols = ambient.matrix()
    comp = Subspace._of(cols.submatrix(range(cols.rows), [f for f, _ in free]))
    # stored row by row, each row in column order
    coords = fmap * ambient._left_inv()
    return comp, RatMatrix.of_ints(coords.rows, coords.cols, dict(sorted(coords.ints.items())),
                                   coords.den)


def _left_inverse(m: RatMatrix) -> RatMatrix:
    """E with E m = I for a full-column-rank m (deterministic).  It
    eliminates [m | I] times m's denominator, in primitive integer rows;
    row c of E is the identity block of the pivot row of column c over its
    pivot."""
    aug = m.int_rows()
    for i, r in enumerate(aug):
        r[m.cols + i] = m.den
    pivots, red = _echelon(_primitive_rows(aug), col_order=range(m.cols))
    if len(pivots) != m.cols:
        raise LinalgError("matrix does not have full column rank")
    # pivot columns are already exclusive after full elimination
    den = lcm(*(red[r][c] for r, c in pivots))
    ints = {}
    for r, c in sorted(pivots, key=lambda p: p[1]):
        row = red[r]
        s = den // row[c]
        ints.update(((c, j - m.cols), x * s) for j, x in row.items() if j >= m.cols)
    return RatMatrix.of_ints(m.cols, m.rows, ints, den)


class PairingForm:
    """Bilinear pairing between Q^left_dim and Q^right_dim."""

    __slots__ = ("left_dim", "right_dim", "matrix")

    def __init__(self, left_dim, right_dim, matrix):
        if matrix.shape != (left_dim, right_dim):
            raise DimensionMismatch("pairing matrix shape mismatch")
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.matrix = matrix

    def value(self, u, v):
        """u^T M v for two sparse vectors."""
        w = self.matrix.matvec(v)
        return sum((x * w[i] for i, x in u.items() if i in w), Fraction(0))

    def is_square(self):
        return self.left_dim == self.right_dim

    def nondegenerate(self):
        if self.left_dim != self.right_dim:
            return False
        return self.matrix.rank() == self.left_dim

    def __repr__(self):
        return f"PairingForm({self.left_dim}x{self.right_dim})"


def orthogonal_complement(p: PairingForm, side: str, s: Subspace) -> Subspace:
    """{v : p(v, s) = 0} for side='left', {v : p(s, v) = 0} for side='right'."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    dim = p.left_dim if side == "left" else p.right_dim
    sdim = p.right_dim if side == "left" else p.left_dim
    if s.ambient_dim != sdim:
        raise DimensionMismatch("subspace does not live in the paired space")
    if s.dim == 0:
        return Subspace.full(dim)
    # one condition row per basis vector b: (M b)^T for v . (M b) = 0 on
    # the left, b^T M for (M^T b) . v = 0 on the right
    if side == "left":
        cond = (p.matrix * s.matrix()).transpose()
    else:
        cond = s.matrix().transpose() * p.matrix
    return kernel_basis(cond)


def _plus_minus_symmetric(m: RatMatrix) -> bool:
    """m^T == m or m^T == -m, compared on the integer storage."""
    e = m.ints
    return (all(e.get((j, i)) == v for (i, j), v in e.items())
            or all(e.get((j, i)) == -v for (i, j), v in e.items()))


def two_sided_complement(p: PairingForm, s: Subspace) -> Subspace:
    """{v : p(v,s)=0 and p(s,v)=0}, also meaningful without symmetry.  When
    the matrix M of p is symmetric or antisymmetric, p(s, v) = +-p(v, s),
    so the left and right complements are the same subspace and the left
    one (one kernel) is returned; otherwise their intersection."""
    if not p.is_square():
        raise DimensionMismatch("two-sided complement needs a square pairing")
    left = orthogonal_complement(p, "left", s)
    if _plus_minus_symmetric(p.matrix):
        return left
    right = orthogonal_complement(p, "right", s)
    return left.intersect(right)


def classify_subspace(p: PairingForm, s: Subspace):
    """Isotropic / coisotropic / lagrangian verdicts for s against a square
    pairing (lagrangian = both; no dimension count)."""
    if not p.is_square():
        raise DimensionMismatch("classification needs a pairing of a space with itself")
    if s.ambient_dim != p.left_dim:
        raise DimensionMismatch("subspace does not live in the paired space")
    perp = two_sided_complement(p, s)
    isotropic = perp.contains_subspace(s)
    coisotropic = s.contains_subspace(perp)
    return {
        "isotropic": isotropic,
        "coisotropic": coisotropic,
        "lagrangian": isotropic and coisotropic,
    }


def presymplectic_reduce(p: PairingForm, sub: Subspace):
    """Quotient W' = W / ker(p) with the induced nondegenerate pairing and
    the image of `sub`, re-verifying the isotropy/Lagrangianity transfer
    facts (including the lifting clause when ker(p) is inside sub)."""
    if not p.is_square():
        raise DimensionMismatch("presymplectic reduction needs a square pairing")
    n = p.left_dim
    if sub.ambient_dim != n:
        raise DimensionMismatch("subspace does not live in the paired space")
    kernel = two_sided_complement(p, Subspace.full(n))
    comp, coords = quotient(Subspace.full(n), kernel)
    k = comp.dim
    c = comp.matrix()
    red_pairing = PairingForm(k, k, c.transpose() * p.matrix * c)
    red_sub = column_span(coords * sub.matrix())
    before = classify_subspace(p, sub)
    after = (
        classify_subspace(red_pairing, red_sub)
        if k
        else {"isotropic": True, "coisotropic": True, "lagrangian": True}
    )
    kernel_in_sub = sub.contains_subspace(kernel)
    facts = {
        "reduced_nondegenerate": red_pairing.nondegenerate() if k else True,
        "isotropy_matches": before["isotropic"] == after["isotropic"],
        "lagrangian_descends": (not before["lagrangian"]) or after["lagrangian"],
        "lagrangian_lifts": (not (after["lagrangian"] and kernel_in_sub))
        or before["lagrangian"],
    }
    return {
        "kernel": kernel,
        "reduced_dim": k,
        "reduced_pairing": red_pairing,
        "reduced_sub": red_sub,
        "projection": comp.matrix() * coords,
        "complement": comp,
        "facts": facts,
    }
