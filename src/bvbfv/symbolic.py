"""Graded-commutative polynomial algebra with Koszul signs, graded
symplectic targets, and the symbolic certification of master equations,
Hamiltonian vector fields and Euler-vector-field primitives.

Coefficients are exact rationals; every verdict is a statement about the
Koszul normal form being identically zero.
"""

from __future__ import annotations

from fractions import Fraction


class SymbolicError(Exception):
    pass


_ZERO = Fraction(0)


def _add_term(out, mono, c):
    """out[mono] += c in place, as a Fraction; a coefficient that cancels
    is dropped, so the polynomial stays in normal form."""
    v = out.get(mono, _ZERO) + c
    if v:
        out[mono] = v
    else:
        out.pop(mono, None)


class NotInvariantMetric(SymbolicError):
    pass


class DegreeInconsistency(SymbolicError):
    pass


class DegreeZeroForm(SymbolicError):
    pass


class GradedVar:
    __slots__ = ("name", "degree", "form_degree")

    def __init__(self, name, degree, form_degree=0):
        self.name = name
        self.degree = int(degree)
        self.form_degree = int(form_degree)

    @property
    def parity(self):
        return (self.degree + self.form_degree) % 2

    def __repr__(self):
        return f"{self.name}[{self.degree}]" + ("'" * self.form_degree)


class GradedAlgebra:
    """A fixed universe of graded variables with Koszul-normal-form
    arithmetic on polynomials (dicts monomial-tuple -> Fraction).

    Monomials are tuples of variable indices in non-decreasing order; odd
    variables never repeat.  Reordering two variables contributes the sign
    (-1)^(parity*parity).
    """

    def __init__(self, variables):
        self.vars = list(variables)
        self.index = {v.name: i for i, v in enumerate(self.vars)}
        if len(self.index) != len(self.vars):
            raise SymbolicError("variable names must be unique")

    def parity(self, i):
        return self.vars[i].parity

    def degree_of_monomial(self, mono):
        return sum(self.vars[i].degree for i in mono)

    # -- normal form --------------------------------------------------------

    def normalize_monomial(self, seq):
        """(sign, sorted tuple) or (0, None) when an odd variable repeats."""
        seq = list(seq)
        sign = 1
        # insertion sort tracking Koszul signs
        for i in range(1, len(seq)):
            j = i
            while j > 0 and seq[j - 1] > seq[j]:
                if self.parity(seq[j - 1]) and self.parity(seq[j]):
                    sign = -sign
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                j -= 1
        for a, b in zip(seq, seq[1:]):
            if a == b and self.parity(a):
                return 0, None
        return sign, tuple(seq)

    def poly(self, terms):
        """Normalize {sequence: coeff} into canonical form."""
        out = {}
        for seq, c in terms.items():
            c = Fraction(c)
            if not c:
                continue
            sign, mono = self.normalize_monomial(seq)
            if sign:
                _add_term(out, mono, sign * c)
        return out

    def zero(self):
        return {}

    def one(self):
        return {(): Fraction(1)}

    def generator(self, name):
        return {(self.index[name],): Fraction(1)}

    def add(self, p, q):
        out = dict(p)
        for m, c in q.items():
            _add_term(out, m, c)
        return out

    def scale(self, p, c):
        c = Fraction(c)
        if not c:
            return {}
        return {m: c * v for m, v in p.items()}

    def mul(self, p, q):
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                sign, mono = self.normalize_monomial(m1 + m2)
                if sign:
                    _add_term(out, mono, sign * c1 * c2)
        return out

    def is_homogeneous(self, p):
        degs = {self.degree_of_monomial(m) + 0 for m in p}
        return len(degs) <= 1

    def degree(self, p):
        degs = {self.degree_of_monomial(m) for m in p}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeInconsistency(f"inhomogeneous polynomial of degrees {degs}")
        return degs.pop()

    # -- derivatives ---------------------------------------------------------

    def left_derivative(self, p, i):
        """d/dx_i acting from the left: x_i passes the variables before it."""
        return self._derivative(p, i, left=True)

    def right_derivative(self, p, i):
        """d/dx_i acting from the right: x_i passes the variables after it."""
        return self._derivative(p, i, left=False)

    def _derivative(self, p, i, left):
        out = {}
        for mono, c in p.items():
            for pos, v in enumerate(mono):
                if v != i:
                    continue
                sign = 1
                if self.parity(i):
                    passed = mono[:pos] if left else mono[pos + 1:]
                    sign = (-1) ** sum(self.parity(u) for u in passed)
                _add_term(out, mono[:pos] + mono[pos + 1:], sign * c)
        return out

    def to_string(self, p):
        if not p:
            return "0"
        parts = []
        for mono in sorted(p):
            c = p[mono]
            names = "*".join(self.vars[i].name for i in mono) or "1"
            parts.append(f"({c})*{names}")
        return " + ".join(parts)


class Derivation:
    """Graded derivation given by its values on generators; extends by the
    graded Leibniz rule with the derivation's parity."""

    def __init__(self, algebra: GradedAlgebra, images, parity, degree=None):
        self.algebra = algebra
        self.images = {i: dict(p) for i, p in images.items()}
        self.parity = parity % 2
        self.degree = degree

    def apply(self, p):
        """D(x_1 .. x_k) = sum over the positions of the Koszul-signed
        x_1 .. D(x_i) .. x_k; each of its terms is one monomial normalized
        once, which gives the sign and monomial of head * term * tail."""
        alg = self.algebra
        out = {}
        for mono, c in p.items():
            pref_parity = 0
            for pos, v in enumerate(mono):
                img = self.images.get(v)
                if img:
                    sc = (-1) ** (self.parity * pref_parity) * c
                    head, tail = mono[:pos], mono[pos + 1:]
                    for m2, c2 in img.items():
                        sign, m = alg.normalize_monomial(head + m2 + tail)
                        if sign:
                            _add_term(out, m, sign * sc * c2)
                pref_parity += alg.parity(v)
        return out


# ---------------------------------------------------------------------------
# targets


class TargetSpec:
    """Graded symplectic target: variables with degrees, a constant pairing
    matrix of declared degree m, and a Hamiltonian generator theta of degree
    m + 1."""

    def __init__(self, variables, omega, m, theta):
        self.base_vars = [GradedVar(v.name, v.degree) for v in variables]
        all_vars = list(self.base_vars) + [
            GradedVar("d" + v.name, v.degree, form_degree=1) for v in self.base_vars
        ]
        self.algebra = GradedAlgebra(all_vars)
        self.n_base = len(self.base_vars)
        self.m = int(m)
        self.omega = [[Fraction(x) for x in row] for row in omega]
        if len(self.omega) != self.n_base or any(
            len(r) != self.n_base for r in self.omega
        ):
            raise DegreeInconsistency("omega matrix shape mismatch")
        self.theta = self.algebra.poly(theta)
        self._validate()

    def _validate(self):
        for a in range(self.n_base):
            for b in range(self.n_base):
                if self.omega[a][b]:
                    da = self.base_vars[a].degree
                    db = self.base_vars[b].degree
                    if da + db != self.m:
                        raise DegreeInconsistency(
                            f"omega couples degrees {da} and {db}, sum != {self.m}"
                        )
                    sym = (-1) ** ((da + 1) * (db + 1))
                    if self.omega[a][b] != sym * self.omega[b][a]:
                        raise DegreeInconsistency(
                            "omega matrix has the wrong graded symmetry"
                        )
        th_deg = self.algebra.degree(self.theta)
        if self.theta and th_deg != self.m + 1:
            raise DegreeInconsistency(
                f"theta has degree {th_deg}, expected {self.m + 1}"
            )
        from .linalg import LinalgError

        # omega is nondegenerate exactly when it has an inverse, which the
        # bracket reads: one elimination decides and builds it
        try:
            self._winv = _inverse(self.omega)
        except LinalgError:
            raise DegreeInconsistency("omega matrix is degenerate") from None

    def bracket_matrix(self):
        """omega^{ab}: the inverse pairing used by the bracket."""
        return self._winv

    # -- structural operations ----------------------------------------------

    def poisson_bracket(self, f, g):
        """{f, g} = sum f(right-d_a) omega^{ab} (left-d_b) g.

        The sign in the right slot, (-1)^(|f| + parity_a), is the one that
        makes {theta, -} the Hamiltonian vector field of theta in the sense
        iota_Q omega = d theta (verified symbolically for every target)."""
        alg = self.algebra
        w = self.bracket_matrix()
        out = {}
        # d_b g, taken once per b
        gbs = {}
        for part in self._homogeneous_parts(f):
            deg = alg.degree(part)
            for a in range(self.n_base):
                fa = alg.right_derivative(part, a)
                if not fa:
                    continue
                sgn = (-1) ** ((deg + self.base_vars[a].parity) % 2)
                for b in range(self.n_base):
                    if not w[a][b]:
                        continue
                    if b not in gbs:
                        gbs[b] = alg.left_derivative(g, b)
                    if not gbs[b]:
                        continue
                    s = sgn * w[a][b]
                    for m, c in alg.mul(fa, gbs[b]).items():
                        _add_term(out, m, s * c)
        return out

    def _homogeneous_parts(self, f):
        by_deg = {}
        for mono, c in f.items():
            d = self.algebra.degree_of_monomial(mono)
            by_deg.setdefault(d, {})[mono] = c
        return list(by_deg.values())

    def check_master(self):
        residual = self.poisson_bracket(self.theta, self.theta)
        return {"ok": not residual, "residual": residual}

    def hamiltonian_vf(self):
        """Q(x_a) = {theta, x_a}; a degree-one derivation."""
        alg = self.algebra
        images = {}
        for a in range(self.n_base):
            img = self.poisson_bracket(self.theta, alg.generator(self.base_vars[a].name))
            if img:
                images[a] = img
        return Derivation(alg, images, parity=1, degree=1)

    def q_squared_residuals(self):
        q = self.hamiltonian_vf()
        out = {}
        for a in range(self.n_base):
            r = q.apply(q.apply(self.algebra.generator(self.base_vars[a].name)))
            if r:
                out[self.base_vars[a].name] = r
        return out

    # -- Cartan operations on the doubled algebra ----------------------------

    def de_rham(self):
        alg = self.algebra
        images = {a: alg.generator("d" + self.base_vars[a].name)
                  for a in range(self.n_base)}
        return Derivation(alg, images, parity=1, degree=0)

    def contract_euler(self):
        alg = self.algebra
        images = {}
        for a in range(self.n_base):
            v = self.base_vars[a]
            if v.degree:
                images[self.n_base + a] = alg.scale(alg.generator(v.name), v.degree)
        return Derivation(alg, images, parity=1, degree=0)

    def contract_vf(self, component_polys):
        """iota_X for X = sum X^a d/dx_a with given component polynomials."""
        alg = self.algebra
        images = {}
        par = None
        for a, comp in component_polys.items():
            if comp:
                images[self.n_base + a] = comp
                d = alg.degree(comp) - self.base_vars[a].degree
                par = d if par is None else par
        parity = (1 + (par or 0)) % 2
        return Derivation(alg, images, parity=parity)

    def omega_form(self):
        alg = self.algebra
        out = {}
        for a in range(self.n_base):
            for b in range(self.n_base):
                c = self.omega[a][b]
                if c:
                    sign, mono = alg.normalize_monomial((self.n_base + a, self.n_base + b))
                    if sign:
                        _add_term(out, mono, sign * c / 2)
        return out

    def euler_and_roytenberg(self):
        """theta-primitive = (1/m) iota_E omega with d(theta-primitive) =
        omega, and the reconstruction S = (1/(m+1)) iota_E iota_Q omega,
        which must return theta exactly."""
        if self.m == 0:
            raise DegreeZeroForm(
                "degree-zero symplectic forms need exactness as an extra assumption"
            )
        alg = self.algebra
        omega = self.omega_form()
        i_e = self.contract_euler()
        theta_prim = alg.scale(i_e.apply(omega), Fraction(1, self.m))
        d = self.de_rham()
        d_prim = d.apply(theta_prim)
        primitive_ok = alg.add(d_prim, alg.scale(omega, -1)) == {}
        q = self.hamiltonian_vf()
        i_q = self.contract_vf(q.images)
        iq_omega = i_q.apply(omega)
        # consistency: iota_Q omega = d theta
        d_theta = d.apply(self.theta)
        hamiltonian_ok = alg.add(iq_omega, alg.scale(d_theta, -1)) == {}
        s = alg.scale(i_e.apply(iq_omega), Fraction(1, self.m + 1))
        reconstruction_ok = alg.add(s, alg.scale(self.theta, -1)) == {}
        return {
            "theta_primitive": theta_prim,
            "primitive_ok": primitive_ok,
            "hamiltonian_ok": hamiltonian_ok,
            "S_reconstructed": s,
            "reconstruction_ok": reconstruction_ok,
        }

    def summary(self):
        cm = self.check_master()
        q2 = self.q_squared_residuals()
        out = {
            "master_ok": cm["ok"],
            "master_residual": self.algebra.to_string(cm["residual"]),
            "q_squared_ok": not q2,
        }
        if self.m != 0:
            roy = self.euler_and_roytenberg()
            out.update(
                {
                    "primitive_ok": roy["primitive_ok"],
                    "hamiltonian_ok": roy["hamiltonian_ok"],
                    "reconstruction_ok": roy["reconstruction_ok"],
                }
            )
        return out


def _inverse(rows):
    """The inverse of a nonsingular square matrix given as dense rows;
    LinalgError when the matrix is singular."""
    from .linalg import RatMatrix, _left_inverse

    n = len(rows)
    inv = [[Fraction(0)] * n for _ in range(n)]
    e = _left_inverse(RatMatrix.from_rows(rows, n))
    for (a, b), v in e.entries.items():
        inv[a][b] = v
    return inv


# ---------------------------------------------------------------------------
# Lie data and builtin targets


class LieData:
    """Structure constants f[a][b] = list of (c, coeff) with [e_a, e_b] =
    sum coeff e_c, plus an optional invariant metric.  Jacobi and metric
    ad-invariance are verified exactly on construction."""

    def __init__(self, structure, metric=None, name="lie"):
        self.name = name
        self.f = [[dict(row) for row in rows] for rows in structure]
        self.dim = len(self.f)
        self.metric = None
        if metric is not None:
            self.metric = [[Fraction(x) for x in row] for row in metric]
        self._validate()

    def c(self, a, b, c):
        return Fraction(self.f[a][b].get(c, 0))

    def _validate(self):
        n = self.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.c(a, b, c) != -self.c(b, a, c):
                        raise SymbolicError("structure constants not antisymmetric")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        s = sum(
                            self.c(a, b, e) * self.c(e, c, d)
                            + self.c(b, c, e) * self.c(e, a, d)
                            + self.c(c, a, e) * self.c(e, b, d)
                            for e in range(n)
                        )
                        if s:
                            raise SymbolicError("structure constants fail Jacobi")
        if self.metric is not None:
            for a in range(n):
                for b in range(n):
                    if self.metric[a][b] != self.metric[b][a]:
                        raise NotInvariantMetric("metric is not symmetric")
            # lowered constants must be totally antisymmetric
            low = self.lowered()
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if low[a][b][c] != -low[a][c][b]:
                            raise NotInvariantMetric(
                                "metric is not ad-invariant "
                                "(lowered constants not totally antisymmetric)"
                            )

    def lowered(self):
        n = self.dim
        return [
            [
                [
                    sum(self.c(a, b, d) * self.metric[d][c] for d in range(n))
                    for c in range(n)
                ]
                for b in range(n)
            ]
            for a in range(n)
        ]

    def raised(self):
        """f^{abc} with all indices raised by the inverse metric."""
        n = self.dim
        inv = _inverse(self.metric)
        out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    out[a][b][c] = sum(
                        inv[a][i] * inv[b][j] * self.c(i, j, c)
                        for i in range(n)
                        for j in range(n)
                    )
        return out


def so3():
    eps = {}
    for (a, b, c, s) in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        eps[(a, b, c)] = s
    structure = [[{c: Fraction(eps.get((a, b, c), 0))
                   for c in range(3) if eps.get((a, b, c), 0)}
                  for b in range(3)] for a in range(3)]
    metric = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return LieData(structure, metric, "so3")


def gl2():
    # basis E11, E12, E21, E22; [E_ij, E_kl] = d_jk E_il - d_li E_kj
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    structure = [[{} for _ in range(4)] for _ in range(4)]
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            acc = {}
            if j == k:
                acc[idx[(i, l)]] = acc.get(idx[(i, l)], 0) + 1
            if l == i:
                acc[idx[(k, j)]] = acc.get(idx[(k, j)], 0) - 1
            structure[a][b] = {c: Fraction(v) for c, v in acc.items() if v}
    return LieData(structure, None, "gl2")


def cs_target(lie: LieData) -> TargetSpec:
    """Degree-2 target on g[1] with theta = (1/6) f_abc x^a x^b x^c."""
    if lie.metric is None:
        raise NotInvariantMetric("Chern-Simons target needs an invariant metric")
    n = lie.dim
    vars_ = [GradedVar(f"x{a}", 1) for a in range(n)]
    low = lie.lowered()
    theta = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = low[a][b][c]
                if v:
                    theta[(a, b, c)] = theta.get((a, b, c), Fraction(0)) + Fraction(v, 6)
    return TargetSpec(vars_, lie.metric, 2, theta)


def _cotangent_pair(n, x_degree, p_degree):
    """Variables x0..x{n-1} of degree x_degree and p0..p{n-1} of degree
    p_degree, with the unit omega pairing x^a with p_a both ways."""
    vars_ = [GradedVar(f"x{a}", x_degree) for a in range(n)] + [
        GradedVar(f"p{a}", p_degree) for a in range(n)
    ]
    omega = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        omega[n + a][a] = Fraction(1)
        omega[a][n + a] = Fraction(1)
    return vars_, omega


def _bf_term(lie: LieData):
    """(1/2) f^a_bc p_a x^b x^c on the variables of `_cotangent_pair`."""
    n = lie.dim
    theta = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = lie.c(b, c, a)
                if v:
                    key = (n + a, b, c)
                    theta[key] = theta.get(key, Fraction(0)) + v / 2
    return theta


def bf_target(lie: LieData, n_dim) -> TargetSpec:
    """Degree n-1 target on g[1] + g*[n-2] with theta = (1/2) f^a_bc p_a x^b x^c."""
    vars_, omega = _cotangent_pair(lie.dim, 1, n_dim - 2)
    return TargetSpec(vars_, omega, n_dim - 1, _bf_term(lie))


def psm_target(pi_entries, dim) -> TargetSpec:
    """Degree-1 target T*[1]R^dim with theta = (1/2) pi^{ij}(x) p_i p_j.

    pi_entries: dict (i, j) -> polynomial in the x-variables given as
    {x-monomial-tuple: coeff}; must be antisymmetric.
    """
    vars_, omega = _cotangent_pair(dim, 0, 1)
    theta = {}
    for (i, j), poly in pi_entries.items():
        for mono, c in poly.items():
            key = tuple(sorted(mono)) + (dim + i, dim + j)
            theta[key] = theta.get(key, Fraction(0)) + Fraction(c) / 2
    return TargetSpec(vars_, omega, 1, theta)


def cs_cubic_target(lie: LieData, sign=1) -> TargetSpec:
    """Degree-2 target on g[1] + g[1] with the cubic momentum deformation
    theta = (1/2) f^a_bc p_a x^b x^c +- (1/6) f^{abc} p_a p_b p_c."""
    if lie.metric is None:
        raise NotInvariantMetric("cubic deformation needs an invariant metric")
    n = lie.dim
    vars_, omega = _cotangent_pair(n, 1, 1)
    theta = _bf_term(lie)
    raised = lie.raised()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                v = raised[a][b][c]
                if v:
                    key = (n + a, n + b, n + c)
                    theta[key] = theta.get(key, Fraction(0)) + Fraction(sign) * v / 6
    return TargetSpec(vars_, omega, 2, theta)


def example5_target(lie: LieData) -> TargetSpec:
    """Degree-3 target with the quadratic momentum term
    theta = (1/2) f^a_bc p_a x^b x^c + (1/2) kappa^{ab} p_a p_b."""
    if lie.metric is None:
        raise NotInvariantMetric("the quadratic deformation needs an invariant metric")
    n = lie.dim
    vars_, omega = _cotangent_pair(n, 1, 2)
    theta = _bf_term(lie)
    inv = _inverse(lie.metric)
    for b in range(n):
        for a in range(n):
            v = inv[a][b]
            if v:
                key = tuple(sorted((n + a, n + b)))
                theta[key] = theta.get(key, Fraction(0)) + v / 2
    return TargetSpec(vars_, omega, 3, theta)


# name -> builder of every builtin target, in the order the corpus lists them
BUILTIN_TARGETS = {
    "cs_so3": lambda: cs_target(so3()),
    "bf_gl2_n4": lambda: bf_target(gl2(), 4),
    "psm_so3": lambda: psm_target(kirillov_kostant(so3()), 3),
    "cs_cubic_plus": lambda: cs_cubic_target(so3(), 1),
    "cs_cubic_minus": lambda: cs_cubic_target(so3(), -1),
    "example5_so3": lambda: example5_target(so3()),
}


def builtin_target(name) -> TargetSpec:
    if name not in BUILTIN_TARGETS:
        raise SymbolicError(f"unknown builtin target {name!r}")
    return BUILTIN_TARGETS[name]()


def kirillov_kostant(lie: LieData):
    """The linear Poisson bivector pi^{ij} = f^k_{ij} x_k of the dual."""
    out = {}
    for i in range(lie.dim):
        for j in range(lie.dim):
            poly = {}
            for k, v in lie.f[i][j].items():
                poly[(k,)] = v
            if poly:
                out[(i, j)] = poly
    return out


def jacobi_check(pi_entries, dim):
    """Two independent verdicts that must agree: the Jacobiator of the
    bivector, and the master equation of the induced sigma-model target."""
    algebra = GradedAlgebra([GradedVar(f"x{i}", 0) for i in range(dim)])

    def entry(i, j):
        if (i, j) in pi_entries:
            return algebra.poly(pi_entries[(i, j)])
        if (j, i) in pi_entries:
            return algebra.scale(algebra.poly(pi_entries[(j, i)]), -1)
        return {}

    jacobiator_zero = True
    residuals = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = {}
                for d in range(dim):
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        term = algebra.mul(
                            entry(d, a), algebra.left_derivative(entry(b, c), d)
                        )
                        for m, x in term.items():
                            _add_term(acc, m, x)
                if acc:
                    jacobiator_zero = False
                    residuals[(i, j, k)] = acc
    target = psm_target(pi_entries, dim)
    master = target.check_master()
    return {
        "jacobiator_zero": jacobiator_zero,
        "master_zero": master["ok"],
        "agree": jacobiator_zero == master["ok"],
        "jacobiator_residuals": residuals,
    }


# ---------------------------------------------------------------------------
# file format


def _rational(x):
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise SymbolicError(f"bad rational {x!r}: {e}") from None


def _check_target(data):
    """The schema of a target file: vars [{name: str, degree: int}], omega
    [[entry]], omega_degree: int and theta [{coeff, monomial: [str]}]."""
    def each(key, test):
        xs = data.get(key, [])
        return isinstance(xs, list) and all(test(x) for x in xs)

    if not (isinstance(data, dict)
            and each("vars", lambda v: isinstance(v, dict) and isinstance(v.get("name"), str)
                     and type(v.get("degree")) is int)
            and each("omega", lambda row: isinstance(row, list))
            and type(data.get("omega_degree")) is int
            and each("theta", lambda t: isinstance(t, dict)
                     and isinstance(t.get("monomial"), list)
                     and all(isinstance(n, str) for n in t["monomial"]))):
        raise SymbolicError("target file: expected vars [{name, degree}], omega [rows], "
                            "an integer omega_degree and theta [{coeff, monomial}]")


def target_from_dict(data) -> TargetSpec:
    _check_target(data)
    vars_ = [GradedVar(v["name"], v["degree"]) for v in data["vars"]]
    omega = [[_rational(x) for x in row] for row in data["omega"]]
    name_to_idx = {v.name: i for i, v in enumerate(vars_)}
    theta = {}
    for term in data.get("theta", []):
        mono = tuple(name_to_idx[n] for n in term["monomial"])
        theta[mono] = theta.get(mono, Fraction(0)) + _rational(term["coeff"])
    return TargetSpec(vars_, omega, data["omega_degree"], theta)
