"""Builders for the linear gauge theories on a simplicial complex, and the
exact verification of the boundary-corrected classical master equation.

Two discrete pairing models coexist.

Cup model (abelian BF, abelian Chern-Simons and the electrodynamics
stratum): fields and antifields are cochains in shifted sector families; the
symplectic data, the action and the boundary one-form are Alexander-Whitney
cup products evaluated on the fundamental cycle.  Each theory is one sector
table (`_CupTable`) whose sign rules are calibrated once so that every
master-equation identity is an exact matrix identity.  One builder reads all
three tables and lays out the boundary half with the code of the bulk half,
run on the boundary complex.  For bf and cs the boundary data of a stratum
is the bulk data of the next one, up to fixed signs per degree.

Cotangent model (scalar field p = 0, electrodynamics p = 1): one builder
for the free p-form field.  The ghost lives in C^{p-1}, the position in the
relative cochain cone C^p(N) + C^{p-1}(dN), the momentum in the relative
chain cone C_{p+1}(N) + C_p(dN) whose extra summand is the explicit boundary
flux, and the antifields in the dual spaces.  The Hodge star is the identity
Gram matrix; the adjoint differential is the transpose, and the cone
components produce the exact discrete Green formula that feeds the boundary
one-form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .complexes import GhostMismatch
from .linalg import PairingForm, RatMatrix
from .simplicial import OrientedComplex


class TheoryError(Exception):
    pass


class WrongDimension(TheoryError):
    pass


class SignConventionMismatch(TheoryError):
    pass


# ---------------------------------------------------------------------------


class FieldSpace:
    """Ordered collection of slots (sector, degree, dim, ghost) with flat
    coordinates."""

    def __init__(self):
        self.slots = []
        self._offset = {}
        self.total = 0

    def add(self, sector, degree, dim, ghost):
        if dim == 0:
            return
        key = (sector, degree)
        if key in self._offset:
            raise TheoryError(f"slot {key} added twice")
        self._offset[key] = self.total
        self.slots.append(
            {"sector": sector, "degree": degree, "dim": dim, "ghost": ghost}
        )
        self.total += dim

    def on(self, K):
        """The same slots laid out on the faces of the complex K; a slot
        with no face there is dropped."""
        out = FieldSpace()
        for s in self.slots:
            out.add(s["sector"], s["degree"], K.n_faces(s["degree"]), s["ghost"])
        return out

    def has(self, sector, degree):
        return (sector, degree) in self._offset

    def offset(self, sector, degree):
        return self._offset[(sector, degree)]

    def dim(self, sector, degree):
        for s in self.slots:
            if s["sector"] == sector and s["degree"] == degree:
                return s["dim"]
        return 0

    def ghosts(self):
        return sorted({s["ghost"] for s in self.slots})

    def ghost_indices(self, g):
        out = []
        off = 0
        for s in self.slots:
            if s["ghost"] == g:
                out.extend(range(off, off + s["dim"]))
            off += s["dim"]
        return out

    def slot_of(self, flat_index):
        off = 0
        for s in self.slots:
            if off <= flat_index < off + s["dim"]:
                return s, flat_index - off
            off += s["dim"]
        raise IndexError(flat_index)

    def diag_sign(self, rule):
        """Diagonal matrix from a rule (sector, degree, ghost) -> value."""
        m = RatMatrix(self.total, self.total)
        off = 0
        for s in self.slots:
            m.add_block(off, off, RatMatrix.identity(s["dim"]),
                        rule(s["sector"], s["degree"], s["ghost"]))
            off += s["dim"]
        return m


def set_block(m, row_space, row_slot, col_space, col_slot, block, scale=1):
    """Add block (scaled) into the flat matrix at the given slot positions,
    in place and in integers (`RatMatrix.add_block`)."""
    if block is None or not row_space.has(*row_slot) or not col_space.has(*col_slot):
        return
    m.add_block(row_space.offset(*row_slot), col_space.offset(*col_slot), block, scale)


def cup_block(cx: OrientedComplex, k, l):
    """Matrix M with a^T M b = <a cup b, [N]> for a in C^k, b in C^l."""
    n = cx.dimension
    if k + l != n:
        return RatMatrix(cx.n_faces(k), cx.n_faces(l))
    # a (front, back) face pair determines its top simplex: one write each
    return RatMatrix.of_ints(cx.n_faces(k), cx.n_faces(l), {
        (cx.face_index(k, t[: k + 1]), cx.face_index(l, t[k:])): int(sgn)
        for t, sgn in cx.top.items()})


def chain_boundary(cx: OrientedComplex, k):
    """Boundary operator on chains C_k -> C_{k-1} (transpose of d_{k-1})."""
    return cx.coboundary_matrix(k - 1).transpose()


# ---------------------------------------------------------------------------


class LinearTheory:
    """A linear BV-BFV theory in explicit matrix form.

    All structural data are flat rational matrices over the bulk/boundary
    field spaces; every verdict about this object is an exact matrix
    identity.
    """

    def __init__(self, **kw):
        self.name = kw["name"]
        self.kind = kw["kind"]
        self.n = kw["n"]                      # ambient dimension
        self.D = kw["D"]                      # dimension of the carrying complex
        self.cx = kw["cx"]
        self.bulk: FieldSpace = kw["bulk"]
        self.bdry: FieldSpace = kw["bdry"]
        self.Q = kw["Q"]
        self.Q_bdry = kw["Q_bdry"]
        self.pi = kw["pi"]
        self.omega = kw.get("omega")          # field-level pairing or None
        self.omega_bdry = kw["omega_bdry"]
        self.alpha_bdry = kw["alpha_bdry"]
        self.S_mat = kw["S_mat"]
        self.S_bdry_mat = kw["S_bdry_mat"]
        self.P = kw.get("P")                  # second-slot rule for L_Q omega
        self.P_bdry = kw["P_bdry"]
        self.pair_bulk_mat = kw["pair_bulk_mat"]
        self.adj_beta_sign = kw["adj_beta_sign"]
        self.adj_psi_sign = kw["adj_psi_sign"]
        self.model = kw["model"]              # 'cup' | 'cotangent'
        self.mass = kw.get("mass", Fraction(0))
        self.meta = kw.get("meta", {})

    # mechanical helpers --------------------------------------------------

    def S_deriv(self):
        return self.S_mat + self.S_mat.transpose()

    def pair_bulk(self, u, v):
        n = self.bulk.total
        return PairingForm(n, n, self.pair_bulk_mat).value(u, v)

    def __repr__(self):
        return (f"LinearTheory({self.name}, n={self.n}, D={self.D}, "
                f"bulk dim {self.bulk.total}, boundary dim {self.bdry.total})")


# ---------------------------------------------------------------------------
# cup models: abelian BF, abelian Chern-Simons and the electrodynamics
# stratum, each one sector table read by one builder


class _CupTable(NamedTuple):
    """The sector table of a cup model on a complex of dimension D.

    `families` maps a sector family to (shift, names, boundary): names(D)
    maps each bulk degree k of the family to its slot name, the slot has
    ghost shift(n) - k, and boundary(D) lists the degrees kept on the
    boundary.  Each form is a tuple of cup terms (front, back, sign), the
    block <x cup y> of a front field x in degree k and a back field y (dy
    for the actions S and S_bdry) whose cup degree l completes k to the
    dimension of the carrying complex.  sign(D, k, l) gives the signs of
    the block in the front field's rows and of its transpose in the back
    field's rows.  P and P_bdry give, per family, the sign of the second
    slot of L_Q omega in degree k.
    """

    name: str
    kind: str
    families: dict
    omega: tuple | None          # None: pairing declared at the reduced level
    omega_bdry: tuple
    S: tuple
    P: tuple | None
    P_bdry: tuple
    adj: Callable                # D -> (adj_beta_sign, adj_psi_sign)
    pair: tuple = ()             # bulk pairing when omega is None
    alpha: tuple = ()
    S_bdry: tuple = ()


def _every(name):
    return lambda D: dict.fromkeys(range(D + 1), name)


def _alt(D, k):
    return (-1) ** k


_BF = _CupTable(
    name="abelian_bf(n={n})",
    kind="abelian_bf",
    # on the boundary every degree but the top one: range(D)
    families={"A": (lambda n: 1, _every("A"), range),
              "B": (lambda n: n - 2, _every("B"), range)},
    omega=(("B", "A", lambda D, k, l: ((-1) ** (D - k), (-1) ** D)),),
    omega_bdry=(("B", "A", lambda D, k, l: ((-1) ** (k + 1), (-1) ** (D + l + 1))),),
    alpha=(("B", "A", lambda D, k, l: ((-1) ** l, 0)),),
    S=(("B", "A", lambda D, k, l: (1, 0)),),
    # the boundary action in integrated-by-parts normal form, weights t_l
    S_bdry=(("B", "A", lambda D, k, l: (Fraction((-1) ** D + (-1) ** l, 2), 0)),),
    P=(lambda D, k: (-1) ** (D + k + 1), lambda D, k: (-1) ** (k + 1)),
    P_bdry=(lambda D, k: (-1) ** (D + k + 1), lambda D, k: (-1) ** (k + 1)),
    adj=lambda D: ((-1) ** D, (-1) ** D),
)

_CS = _CupTable(
    name="abelian_cs",
    kind="abelian_cs",
    families={"A": (lambda n: 1, _every("A"), range)},
    omega=None,
    pair=(("A", "A", lambda D, k, l: (1, 0)),),
    omega_bdry=(("A", "A", lambda D, k, l: (1, 0)),),
    S=(("A", "A", lambda D, k, l: (Fraction(1, 2), 0)),),
    P=None,
    P_bdry=(_alt,),
    adj=lambda D: (1, 1),
)

# the boundary theory of electrodynamics: (c, A) and (B, A+), with the
# codimension-2 data (c, B) on its boundary
_ED_STRATUM = _CupTable(
    name="ed_stratum(n={n})",
    kind="ed_stratum",
    families={"c/A": (lambda n: 1, lambda D: {0: "c", 1: "A"}, lambda D: (0,)),
              "B/A+": (lambda n: n - 2, lambda D: {D - 1: "B", D: "A+"},
                       lambda D: (D - 1,))},
    omega=(("c/A", "B/A+", lambda D, k, l: (-(-1) ** D, (-1) ** D)),),
    omega_bdry=(("c/A", "B/A+", lambda D, k, l: (-1, 1)),),
    alpha=(("c/A", "B/A+", lambda D, k, l: (-(-1) ** D, 0)),),
    S=(("c/A", "B/A+", lambda D, k, l: (1, 0)),),
    P=(lambda D, k: 1, lambda D, k: 1),
    P_bdry=(_alt, _alt),
    adj=lambda D: ((-1) ** D, (-1) ** D),
)


def _cup_half(K, table, n, D, degrees, forms, P):
    """Lay out one half of a cup model on the complex K: the slots of each
    family in `degrees` (family -> degrees), Q as d within each family, the
    matrix of each form in `forms` (name -> cup terms, d on the back field
    of an action) and the diagonal P (per-family rules, or None)."""
    names = {f: spec[1](D) for f, spec in table.families.items()}
    space = FieldSpace()
    family_of = {}
    for i, (f, (shift, _, _)) in enumerate(table.families.items()):
        for k in degrees[f]:
            space.add(names[f][k], k, K.n_faces(k), shift(n) - k)
            family_of[names[f][k]] = i
    Q = RatMatrix(space.total, space.total)
    for f in table.families:
        for k in degrees[f]:
            if k + 1 in degrees[f]:
                set_block(Q, space, (names[f][k + 1], k + 1), space, (names[f][k], k),
                          K.coboundary_matrix(k))
    cups = {}
    out = {}
    for form, (terms, d_back) in forms.items():
        m = out[form] = RatMatrix(space.total, space.total)
        for front, back, sign in terms:
            for k in degrees[front]:
                l = K.dimension - k
                kb = l - 1 if d_back else l
                signs = sign(D, k, l)
                if kb not in degrees[back] or not any(signs):
                    continue
                if (k, l) not in cups:
                    cups[k, l] = cup_block(K, k, l)
                block = cups[k, l]
                if kb != l:
                    block = block * K.coboundary_matrix(kb)
                x, y = (names[front][k], k), (names[back][kb], kb)
                set_block(m, space, x, space, y, block, signs[0])
                set_block(m, space, y, space, x, block.transpose(), signs[1])
    if P is not None:
        P = space.diag_sign(lambda sec, k, g: P[family_of[sec]](D, k))
    return space, Q, out, P


def _cup_theory(cx: OrientedComplex, table: _CupTable, n) -> LinearTheory:
    """The cup model of `table` on cx in ambient dimension n.  The boundary
    half is the bulk layout run on the boundary complex with the table's
    boundary terms; pi restricts every boundary slot."""
    D = cx.dimension
    bc = cx.boundary_complex()
    bulk_deg = {f: tuple(spec[1](D)) for f, spec in table.families.items()}
    bdry_deg = {f: tuple(spec[2](D)) if bc.n_faces(0) else ()
                for f, spec in table.families.items()}
    bulk, Q, forms, P = _cup_half(cx, table, n, D, bulk_deg, {
        "pair": (table.omega or table.pair, False), "S": (table.S, True)}, table.P)
    bdry, Qb, bforms, Pb = _cup_half(bc, table, n, D, bdry_deg, {
        "omega": (table.omega_bdry, False), "alpha": (table.alpha, False),
        "S": (table.S_bdry, True)}, table.P_bdry)
    pi = RatMatrix(bdry.total, bulk.total)
    for s in bdry.slots:
        slot = (s["sector"], s["degree"])
        set_block(pi, bdry, slot, bulk, slot, cx.restriction_matrix(s["degree"]))
    beta, psi = table.adj(D)
    return LinearTheory(
        name=table.name.format(n=n), kind=table.kind, n=n, D=D, cx=cx, model="cup",
        bulk=bulk, bdry=bdry, Q=Q, Q_bdry=Qb, pi=pi, P=P, P_bdry=Pb,
        omega=None if table.omega is None else forms["pair"],
        pair_bulk_mat=forms["pair"], omega_bdry=bforms["omega"],
        alpha_bdry=bforms["alpha"], S_mat=forms["S"], S_bdry_mat=bforms["S"],
        adj_beta_sign=Fraction(beta), adj_psi_sign=Fraction(psi))


def build_abelian_bf(cx: OrientedComplex, ambient_n=None) -> LinearTheory:
    """Abelian BF theory: two full cochain sectors with shifts 1 and n-2.

    With ambient_n greater than the complex dimension this is the
    codimension-k extension of the same theory; all formulas are the same,
    only the ghost bookkeeping shifts.
    """
    n = cx.dimension if ambient_n is None else int(ambient_n)
    if n < 1:
        raise WrongDimension("abelian BF needs ambient dimension >= 1")
    return _cup_theory(cx, _BF, n)


def build_abelian_cs(cx: OrientedComplex, ambient_n=3) -> LinearTheory:
    """Abelian Chern-Simons: one full cochain sector with shift 1 (n = 3).

    Cochain-level cup products are not graded-antisymmetric, so the
    symplectic data of this theory is declared at the reduced (cohomology)
    level only: pair matrices of plain cup evaluation, used on cocycle
    representatives.
    """
    if ambient_n != 3:
        raise WrongDimension("abelian Chern-Simons requires ambient dimension 3")
    if cx.dimension > 3:
        raise WrongDimension("carrying complex of abelian CS has dimension <= 3")
    return _cup_theory(cx, _CS, 3)


def build_ed_stratum(cx: OrientedComplex, ambient_n) -> LinearTheory:
    """The boundary theory of electrodynamics carried by its own complex:
    sectors (A, B, c, A+) with Q(A) = dc, Q(A+) = dB, S = <c cup dB>.

    The boundary fields of this theory are the codimension-2 data (B, c)
    with vanishing boundary action and differential.
    """
    n = int(ambient_n)
    if cx.dimension != n - 1:
        raise WrongDimension("stratum theory lives on an (n-1)-dimensional complex")
    if n < 2:
        raise WrongDimension("the stratum extension needs ambient dimension >= 2")
    return _cup_theory(cx, _ED_STRATUM, n)


# ---------------------------------------------------------------------------
# free p-form fields (cotangent cone model): scalar p = 0, electrodynamics p = 1

# (ghost, position, partner, momentum, flux) sectors of the free p-form
# field; a sector of negative degree is None.  The antifield of sector s
# is s + "+".
_CONE_SECTORS = {0: (None, "phi", None, "p", "p_flux"),
                 1: ("c", "A", "A0", "B", "B1")}


def _cone_theory(cx: OrientedComplex, p, mass, *, name, kind) -> LinearTheory:
    """The free p-form field as a cotangent cone model (see the module
    docstring).  Its boundary fields are the ghost, the position, the flux
    (named after the momentum) and the position antifield; the mass enters
    as a rational diagonal block."""
    n = cx.dimension
    bc = cx.boundary_complex()
    c = Fraction((-1) ** n)
    gh, x, y, m, f = zip(_CONE_SECTORS[p], (p - 1, p, p - 1, p + 1, p))

    def plus(slot):
        return (slot[0] and slot[0] + "+", slot[1])

    def eye(space, slot):
        return RatMatrix.identity(space.dim(*slot))

    def cob(space, k):                      # C^k -> C^{k+1}
        return space.coboundary_matrix(k) if k >= 0 else None

    def bdy(space, k):                      # C_k -> C_{k-1}
        return chain_boundary(space, k) if k >= 1 else None

    def incl(k):                            # C_k(dN) -> C_k(N)
        return cx.restriction_matrix(k).transpose() if k >= 0 else None

    bulk = FieldSpace()
    for slot, dim, ghost in ((gh, cx.n_faces(p - 1), 1), (x, cx.n_faces(p), 0),
                             (y, bc.n_faces(p - 1), 0), (m, cx.n_faces(p + 1), 0),
                             (f, bc.n_faces(p), 0)):
        bulk.add(*slot, dim, ghost)
    for slot, ghost in ((x, -1), (y, -1), (m, -1), (f, -1), (gh, -2)):
        bulk.add(*plus(slot), bulk.dim(*slot), ghost)
    xp, yp, mp, fp, ghp = plus(x), plus(y), plus(m), plus(f), plus(gh)
    mb = (m[0], p)                          # the flux, on the boundary
    xpb = (xp[0], p - 1)                    # the boundary home of y+
    bdry = FieldSpace()
    bdry.add(*gh, bc.n_faces(p - 1), 1)
    bdry.add(*x, bc.n_faces(p), 0)
    bdry.add(*mb, bc.n_faces(p), 0)
    bdry.add(*xpb, bc.n_faces(p - 1), -1)
    mass2 = mass * mass

    Q = RatMatrix(bulk.total, bulk.total)
    set_block(Q, bulk, x, bulk, gh, cob(cx, p - 1), c)
    set_block(Q, bulk, xp, bulk, m, bdy(cx, p + 1), c)
    set_block(Q, bulk, xp, bulk, f, incl(p), -c)
    set_block(Q, bulk, yp, bulk, f, bdy(bc, p), -c)
    set_block(Q, bulk, fp, bulk, y, cob(bc, p - 1), -c)
    set_block(Q, bulk, ghp, bulk, yp, incl(p - 1), -c)
    set_block(Q, bulk, xp, bulk, x, eye(bulk, x), -c * mass2)
    set_block(Q, bulk, mp, bulk, x, cob(cx, p), c)
    set_block(Q, bulk, mp, bulk, m, eye(bulk, m), c)
    set_block(Q, bulk, ghp, bulk, xp, bdy(cx, p), c)

    Qb = RatMatrix(bdry.total, bdry.total)
    set_block(Qb, bdry, x, bdry, gh, cob(bc, p - 1), c)
    set_block(Qb, bdry, xpb, bdry, mb, bdy(bc, p), -c)

    pi = RatMatrix(bdry.total, bulk.total)
    set_block(pi, bdry, gh, bulk, gh, cx.restriction_matrix(p - 1) if p else None)
    set_block(pi, bdry, x, bulk, x, cx.restriction_matrix(p))
    set_block(pi, bdry, mb, bulk, f, eye(bulk, f))
    set_block(pi, bdry, xpb, bulk, yp, eye(bulk, yp))

    omega = RatMatrix(bulk.total, bulk.total)
    for slot in (gh, x, m, y, f):
        set_block(omega, bulk, slot, bulk, plus(slot), eye(bulk, slot))
        set_block(omega, bulk, plus(slot), bulk, slot, eye(bulk, slot))

    omega_bdry = RatMatrix(bdry.total, bdry.total)
    set_block(omega_bdry, bdry, x, bdry, mb, eye(bdry, mb))
    set_block(omega_bdry, bdry, mb, bdry, x, eye(bdry, mb), -1)
    set_block(omega_bdry, bdry, gh, bdry, xpb, eye(bdry, xpb))
    set_block(omega_bdry, bdry, xpb, bdry, gh, eye(bdry, xpb), -1)
    alpha = RatMatrix(bdry.total, bdry.total)
    set_block(alpha, bdry, mb, bdry, x, eye(bdry, mb), -c)
    set_block(alpha, bdry, xpb, bdry, gh, eye(bdry, xpb), -c)

    S_mat = RatMatrix(bulk.total, bulk.total)
    set_block(S_mat, bulk, m, bulk, x, cob(cx, p))
    set_block(S_mat, bulk, m, bulk, m, eye(bulk, m), Fraction(1, 2))
    set_block(S_mat, bulk, xp, bulk, gh, cob(cx, p - 1))
    set_block(S_mat, bulk, f, bulk, y, cob(bc, p - 1), -1)
    set_block(S_mat, bulk, x, bulk, x, eye(bulk, x), -mass2 / 2)
    S_bdry = RatMatrix(bdry.total, bdry.total)
    set_block(S_bdry, bdry, mb, bdry, gh, cob(bc, p - 1), -1)

    return LinearTheory(
        name=name,
        kind=kind,
        n=n,
        D=n,
        cx=cx,
        bulk=bulk,
        bdry=bdry,
        Q=Q,
        Q_bdry=Qb,
        pi=pi,
        omega=omega,
        omega_bdry=omega_bdry,
        alpha_bdry=alpha,
        S_mat=S_mat,
        S_bdry_mat=S_bdry,
        P=bulk.diag_sign(lambda sec, k, g: -1),
        P_bdry=bdry.diag_sign(lambda sec, k, g: 1),
        pair_bulk_mat=omega,
        adj_beta_sign=c,
        adj_psi_sign=-c,
        model="cotangent",
        mass=mass,
        meta={"bdry_flux_sectors": {mb[0], xpb[0]}},
    )


def build_scalar(cx: OrientedComplex, mass=0) -> LinearTheory:
    """Free scalar: the p = 0 cone model, position phi in C^0, momentum in
    C_1(N) + C_0(dN) (the extra summand is the boundary flux p_flux)."""
    mass = Fraction(mass)
    if mass < 0:
        raise TheoryError("mass must be >= 0")
    return _cone_theory(cx, 0, mass, name=f"scalar(m={mass})", kind="scalar")


def build_electrodynamics(cx: OrientedComplex, ambient_n=None) -> LinearTheory:
    """BV-extended electrodynamics: the p = 1 cone model, ghost c in C^0,
    potential A in C^1(N) + C^0(dN) (partner A0), field strength momentum
    B in C_2(N) + C_1(dN) (flux B1)."""
    n = cx.dimension if ambient_n is None else int(ambient_n)
    if n < 2:
        raise WrongDimension("electrodynamics needs dimension >= 2")
    if cx.dimension != n:
        raise WrongDimension("electrodynamics is built on the full-dimensional complex")
    return _cone_theory(cx, 1, Fraction(0), name="electrodynamics",
                        kind="electrodynamics")


# ---------------------------------------------------------------------------
# master-equation verification


class CMEReport:
    def __init__(self, theory):
        self.theory = theory
        self.residuals = {}
        self.checks = {}

    @property
    def ok(self):
        return all(self.checks.values())

    def failing(self):
        return [k for k, v in self.checks.items() if not v]

    def summary(self):
        return {k: bool(v) for k, v in sorted(self.checks.items())}


def _first_bad_block(theory, residual):
    for (i, j), v in sorted(residual.entries.items()):
        si, _ = theory.bulk.slot_of(i)
        sj, _ = theory.bulk.slot_of(j)
        return (f"block ({si['sector']},{si['degree']}) x "
                f"({sj['sector']},{sj['degree']}), first entry {v}")
    return "zero"


def verify_cme(theory: LinearTheory, strict=False) -> CMEReport:
    """Exact verification of the boundary-corrected master-equation package:

      - Q^2 = 0 in the bulk and on the boundary,
      - projectability pi Q = Q_bdry pi,
      - iota_Q omega = (-1)^D dS + pi^* alpha  (the master equation),
      - L_Q omega = (-1)^D pi^* omega_bdry,
      - L_Q S = (-1)^D pi^* (2 S_bdry - iota_{Q_bdry} alpha) as quadratic forms,
      - for cotangent models the boundary-defect identity
        omega(Q xi, eta) - omega(xi, Q eta) = (-1)^D omega_bdry(pi xi, pi eta).

    Each residual is an exact rational matrix; a check passes only if it is
    identically zero.  With strict=True a nonzero residual raises
    SignConventionMismatch naming the offending block.
    """
    t = theory
    rep = CMEReport(t)
    sgn = Fraction((-1) ** t.D)

    rep.residuals["q_squared"] = t.Q * t.Q
    rep.residuals["q_bdry_squared"] = t.Q_bdry * t.Q_bdry
    rep.residuals["projectability"] = t.pi * t.Q - t.Q_bdry * t.pi

    if t.omega is not None:
        pt = t.pi.transpose()
        qw = t.Q.transpose() * t.omega
        wq = t.omega * t.Q
        dS = t.S_deriv()
        pwp = (pt * t.omega_bdry * t.pi).scale(sgn)
        rep.residuals["cme"] = qw - (dS.scale(sgn) + pt * t.alpha_bdry * t.pi)
        rep.residuals["lo"] = qw + t.P.transpose() * wq - pwp
        if t.model == "cotangent":
            rep.residuals["q_self_adjoint"] = qw - wq - pwp
        rhs = pt * (t.S_bdry_mat.scale(2) - t.alpha_bdry * t.Q_bdry).scale(sgn) * t.pi
        diff = dS * t.Q - rhs
        rep.residuals["lqs"] = diff + diff.transpose()

    for name, m in rep.residuals.items():
        rep.checks[name] = m.is_zero()
        if strict and not m.is_zero():
            raise SignConventionMismatch(
                f"{t.name}: identity '{name}' fails at {_first_bad_block(t, m)}"
            )
    return rep


def check_ghost_grading(theory: LinearTheory):
    """Exact ghost bookkeeping: every differential block lowers the field
    ghost number by one (ghost +1 on coordinate functions), pi preserves it,
    and the pairings couple ghosts summing to -1 (bulk) and 0 (boundary),
    both shifted up by the codimension for stratum extensions.  Raises
    GhostMismatch naming the offending blocks."""
    t = theory
    # the ghost of each flat index, listed once per space
    bulk_gh, bdry_gh = ([s["ghost"] for s in space.slots for _ in range(s["dim"])]
                        for space in (t.bulk, t.bdry))

    def label(space, idx):
        s = space.slot_of(idx)[0]
        return f"({s['sector']},{s['degree']})"

    for (i, j) in t.Q.ints:
        if bulk_gh[i] != bulk_gh[j] - 1:
            raise GhostMismatch(f"Q block {label(t.bulk, j)} -> {label(t.bulk, i)} "
                                "does not lower ghost by 1")
    for (i, j) in t.Q_bdry.ints:
        if bdry_gh[i] != bdry_gh[j] - 1:
            raise GhostMismatch("boundary Q block does not lower ghost by 1")
    for (i, j) in t.pi.ints:
        if bdry_gh[i] != bulk_gh[j]:
            raise GhostMismatch("pi does not preserve ghost")
    # pairing ghosts: -1 for the bulk theory, shifted up by the codimension
    gh_bulk = -1 + (t.n - t.D)
    gh_bdry = gh_bulk + 1
    for (i, j) in (t.omega.ints if t.omega is not None else ()):
        g = bulk_gh[i] + bulk_gh[j]
        if g != gh_bulk:
            raise GhostMismatch(f"bulk pairing couples {label(t.bulk, i)} with "
                                f"{label(t.bulk, j)}: ghost sum {g} != {gh_bulk}")
    for (i, j) in t.omega_bdry.ints:
        g = bdry_gh[i] + bdry_gh[j]
        if g != gh_bdry:
            raise GhostMismatch(f"boundary pairing ghost sum {g} != {gh_bdry}")
    return {"bulk_pairing_ghost": gh_bulk, "boundary_pairing_ghost": gh_bdry}


# ---------------------------------------------------------------------------
# ghost-zero slice and stratum extension


def ghost_zero_slice(model):
    """The gh = 0 sector of a theory, read off its ReducedModel: field
    dimensions, Euler-Lagrange conditions, gauge distribution (images of
    ghost-one fields) and its moduli.  The class space behind h_dim has
    checked, by one product, that the gauge directions lie in the EL
    kernel, so their dimension is the kernel's less the moduli's, with no
    image basis eliminated."""
    t = model.t
    fields = {(s["sector"], s["degree"]): s["dim"] for s in t.bulk.slots if s["ghost"] == 0}
    return {
        "field_dims": fields,
        "el_dim": model.bulk.kernel(0).dim,
        "gauge_dim": model.bulk.kernel(0).dim - model.bulk.h_dim(0),
        "moduli_dim": model.bulk.h_dim(0),
        "boundary_constraint_dim": model.bdry.kernel(0).dim,
    }


def extend_to_stratum(kind, cx: OrientedComplex, ambient_n) -> LinearTheory:
    """Build the codimension-k extension of a theory on a stratum complex of
    dimension ambient_n - k.  The formulas are those of the bulk builders;
    only the grading shifts, giving gh(omega) = k - 1 and gh(S) = k."""
    if cx.dimension > ambient_n:
        raise WrongDimension("stratum dimension exceeds ambient dimension")
    extend = _KINDS.get(kind, (None, None))[1]
    if extend is None:
        raise TheoryError(f"no stratum extension for kind {kind!r}")
    return extend(cx, ambient_n)


def verify_extension_chain(kind, cx: OrientedComplex, ambient_n):
    """Check delta-pi(Q_bulk) = Q_boundary along one stratum step: build the
    theory on cx and the extension on its boundary complex, then compare the
    boundary data of the former with the bulk data of the latter."""
    top = extend_to_stratum(kind, cx, ambient_n)
    bc = cx.boundary_complex()
    out = {"projectable": (top.pi * top.Q - top.Q_bdry * top.pi).is_zero(),
           "chain_checked": bool(bc.n_faces(0))}
    if not out["chain_checked"]:
        return out
    lower = extend_to_stratum(kind, bc, ambient_n)
    same_dims = lower.bulk.total == top.bdry.total
    dims_by_slot = all(
        lower.bulk.dim(s["sector"], s["degree"]) == s["dim"] for s in top.bdry.slots
    )
    out["boundary_matches_lower_bulk"] = same_dims and dims_by_slot
    out["q_matches"] = lower.Q == _reindex_like(lower.bulk, top.bdry, top.Q_bdry)
    return out


def _reindex_like(target_space: FieldSpace, source_space: FieldSpace, m: RatMatrix):
    """Rewrite a matrix over source_space slots into target_space order."""
    out = RatMatrix(target_space.total, target_space.total)
    for (i, j), v in m.entries.items():
        (si, li), (sj, lj) = source_space.slot_of(i), source_space.slot_of(j)
        ri, rj = (si["sector"], si["degree"]), (sj["sector"], sj["degree"])
        if not (target_space.has(*ri) and target_space.has(*rj)):
            return None
        out[target_space.offset(*ri) + li, target_space.offset(*rj) + lj] = v
    return out


def _cs_stratum(cx, ambient_n):
    if ambient_n != 3:
        raise WrongDimension("abelian CS extension keeps ambient dimension 3")
    return build_abelian_cs(cx, 3)


def _ed_stratum(cx, ambient_n):
    if ambient_n - cx.dimension != 1:
        raise WrongDimension("electrodynamics extends one stratum at a time")
    return build_ed_stratum(cx, ambient_n)


# kind -> (builder from (cx, ambient n or None, mass), stratum extension
# from (cx, ambient n) or None)
_KINDS = {
    "abelian_bf": (lambda cx, n, mass: build_abelian_bf(cx, n), build_abelian_bf),
    "abelian_cs": (lambda cx, n, mass: build_abelian_cs(cx, 3 if n is None else n),
                   _cs_stratum),
    "scalar": (lambda cx, n, mass: build_scalar(cx, mass), None),
    "electrodynamics": (lambda cx, n, mass: build_electrodynamics(cx, n), _ed_stratum),
}


def theory_from_config(cx: OrientedComplex, config: dict) -> LinearTheory:
    """Build a theory from the config mapping: a string kind, an optional
    rational mass, and optional integers `n` (ambient dimension) and codim.
    Only the scalar has a mass term; a nonzero mass on any other theory or
    on a stratum is a TheoryError."""
    kind, ambient, codim = config.get("kind"), config.get("n"), config.get("codim")
    if not isinstance(kind, str):
        raise TheoryError("theory config needs a string 'kind'")
    if not all(x is None or type(x) is int for x in (ambient, codim)):
        raise TheoryError("theory config: 'n' and 'codim' must be integers")
    try:
        mass = Fraction(config.get("mass", 0))
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise TheoryError(f"bad mass: {e}") from None
    if codim:
        if mass:
            raise TheoryError("a stratum theory has no mass term")
        n = ambient if ambient is not None else cx.dimension + codim
        return extend_to_stratum(kind, cx, n)
    if kind not in _KINDS:
        raise TheoryError(f"unknown theory kind {kind!r}")
    if mass and kind != "scalar":
        raise TheoryError(f"{kind} has no mass term; only the scalar takes a mass")
    return _KINDS[kind][0](cx, ambient, mass)
