"""Reference routes of the tests: the per-vector and per-subspace
constructions that the package decides another way (by ranks, by
per-ghost blocks, by one product of bases), kept as independent
cross-checks of its verdicts.

- Pairings: the left, right and two-sided complements, the
  isotropic / coisotropic / Lagrangian verdicts built from them, and the
  presymplectic reduction W / ker p.
- Cochains: the Alexander-Whitney cup product of sparse cochains, their
  evaluation on [N] and [dN] (`theories.cup_block` is the package's one
  matrix of it), and the Lefschetz / Poincare pairing on cohomology.
- The long exact sequence of a pair (N, dN) with its connecting map by
  zig-zag, checked against a second choice of boundary representatives.
- The vacua by symplectic reduction along a transversal Lagrangian.
- The exactness and kernel verdicts of the package by elimination.
"""

from fractions import Fraction

from bvbfv.complexes import ComplexError, ExactSequenceReport
from bvbfv.linalg import (
    DimensionMismatch,
    LinalgError,
    PairingForm,
    RatMatrix,
    Subspace,
    _plus_minus_symmetric,
    column_span,
    image_basis,
    kernel_basis,
    quotient,
    solve,
)
from bvbfv.moduli import (
    ModuliError,
    _bdry_sum,
    _pairing_block,
    evolution_relation,
    tangent_les,
    vacua,
)
from bvbfv.simplicial import SimplicialError


class NotShortExact(ComplexError):
    pass


class NotTransversal(LinalgError):
    pass


class NotLagrangian(LinalgError):
    pass


# --- pairings ----------------------------------------------------------------


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


def two_sided_complement(p: PairingForm, s: Subspace) -> Subspace:
    """{v : p(v,s)=0 and p(s,v)=0}, also meaningful without symmetry.  When
    the matrix M of p is symmetric or antisymmetric, p(s, v) = +-p(v, s),
    so the left and right complements are the same subspace and the left
    one (one kernel) is returned; otherwise their intersection."""
    if p.left_dim != p.right_dim:
        raise DimensionMismatch("two-sided complement needs a square pairing")
    left = orthogonal_complement(p, "left", s)
    if _plus_minus_symmetric(p.matrix):
        return left
    right = orthogonal_complement(p, "right", s)
    return left.intersect(right)


def classify_subspace(p: PairingForm, s: Subspace):
    """Isotropic / coisotropic / lagrangian verdicts for s against a square
    pairing (lagrangian = both; no dimension count)."""
    if p.left_dim != p.right_dim:
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
    if p.left_dim != p.right_dim:
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


# --- cochains: cup product, evaluation and the pairing on cohomology ---------


def fundamental_cycle(cx):
    """Coefficients of [N] on top faces, indexed like faces(dimension)."""
    return {cx.face_index(cx.dimension, t): Fraction(s) for t, s in cx.top.items()}


def cup(cx, k, a, l, b):
    """Alexander-Whitney product of a k-cochain and an l-cochain.

    Returns a (k+l)-cochain; silently the zero cochain beyond the top
    degree (discrete counterpart of the wedge vanishing there).
    """
    deg = k + l
    if deg > cx.dimension:
        return {}
    out = {}
    for t in cx.faces(deg):
        i = cx.face_index(deg, t)
        front = t[: k + 1]
        back = t[k:]
        av = a.get(cx.face_index(k, front))
        if not av:
            continue
        bv = b.get(cx.face_index(l, back))
        if not bv:
            continue
        out[i] = av * bv
    return {i: v for i, v in out.items() if v}


def evaluate(cx, a):
    """<a, [N]> for a top-degree cochain a (linear, exact)."""
    return sum((v * a.get(i, Fraction(0)) for i, v in fundamental_cycle(cx).items()),
               Fraction(0))


def evaluate_cup(cx, k, a, l, b):
    if k + l != cx.dimension:
        return Fraction(0)
    return evaluate(cx, cup(cx, k, a, l, b))


def boundary_evaluate(cx, a):
    """<a, [dN]> for an (n-1)-cochain given on the boundary complex."""
    bc = cx.boundary_complex()
    return evaluate(bc, a) if bc.n_faces(0) else Fraction(0)


def _exact_perturbation(cc, k, count):
    """count copies, side by side, of one exact cochain of degree k."""
    u = {(j, c): 1 + (j % 3) for j in range(cc.dim(k - 1)) for c in range(count)}
    return cc.d(k - 1) * RatMatrix.of_ints(cc.dim(k - 1), count, u)


def pairing_on_cohomology(cx, k, relative_left=True):
    """Lefschetz/Poincare pairing <[a],[b]> = <a cup b, [N]> in degree
    (k, n-k), with the left argument relative when the boundary is
    nonempty and relative_left is set; plain Poincare pairing on a
    closed complex.

    Well-definedness is certified by perturbing every representative
    with an exact term and recomputing.
    """
    n = cx.dimension
    absc = cx.cochain_complex()
    if cx.is_closed():
        left_cx = right_cx = absc
        left_reps = absc.cohomology(k)[1]
        right_reps = absc.cohomology(n - k)[1]
        lift_left = lift_right = None
    else:
        relc, incl, _ = cx.relative_complex()
        if relative_left:
            left_cx, right_cx = relc, absc
            left_reps = relc.cohomology(k)[1]
            right_reps = absc.cohomology(n - k)[1]
            lift_left, lift_right = incl.block(k), None
        else:
            left_cx, right_cx = absc, relc
            left_reps = absc.cohomology(k)[1]
            right_reps = relc.cohomology(n - k)[1]
            lift_left, lift_right = None, incl.block(n - k)

    def pairing(left, right):
        left = left if lift_left is None else lift_left * left
        right = right if lift_right is None else lift_right * right
        mat = RatMatrix(left.cols, right.cols)
        for i, a in enumerate(left.columns()):
            for j, b in enumerate(right.columns()):
                mat[i, j] = evaluate_cup(cx, k, a, n - k, b)
        return mat

    mat = pairing(left_reps, right_reps)
    if pairing(left_reps + _exact_perturbation(left_cx, k, left_reps.cols),
               right_reps + _exact_perturbation(right_cx, n - k, right_reps.cols)) != mat:
        raise SimplicialError(
            f"cohomology pairing in degree ({k},{n-k}) depends on representatives"
        )
    return PairingForm(mat.rows, mat.cols, mat)


# --- the long exact sequence of a pair -----------------------------------------


def alt_representatives(cc, k):
    """Representatives of H^k(cc) from the kernel basis swept in the
    opposite order: a second choice, which certifies that an induced map
    does not depend on the representatives."""
    reps = cc.piece.reps(k)
    if not reps.cols:
        return reps
    ker = cc.piece.kernel(k)
    flip = range(ker.dim - 1, -1, -1)
    b, e = ker.matrix(), ker._left_inv()
    alt = Subspace._of(b.submatrix(range(b.rows), flip))
    alt._inv = e.submatrix(flip, range(e.cols))
    return quotient(alt, cc.d(k - 1))[0].matrix()


def _check_pair(rel_inclusion, restriction):
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


def les_of_pair(rel_inclusion, restriction):
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


def connecting_map(rel_inclusion, restriction, k):
    """Connecting homomorphism H^k(bdry) -> H^{k+1}(rel).

    Recomputed with a second choice of representatives; the two matrices must
    agree after change of basis, certifying independence of choices.
    """
    rel, absc, bdry, _ = _check_pair(rel_inclusion, restriction)
    beta = _connecting_block(rel, absc, rel_inclusion, restriction, k,
                             bdry.cohomology(k)[1])
    b_alt = alt_representatives(bdry, k)
    beta_alt = _connecting_block(rel, absc, rel_inclusion, restriction, k, b_alt)
    # express alt basis in the default basis and compare
    if beta * bdry.piece.class_matrix(k, b_alt) != beta_alt:
        raise ComplexError("connecting map depends on representative choice")
    return beta


# --- vacua along a transversal Lagrangian ------------------------------------------


def vacua_via_transversal(model, lam: Subspace):
    """Symplectic reduction of the fields with boundary class constrained to
    a transversal Lagrangian lam in the reduced boundary space; verified to
    agree with the vacua in dimension and pairing.  The independent flat
    cross-check of `moduli.vacua`, from kernel_basis and image_basis of Q:
    it stays off the classes, as its pairing check compares omega on flat
    complement representatives, and with a boundary omega(Qy, s) need not
    vanish."""
    t = model.t
    ev = evolution_relation(model)
    pairing = ev["pairing"]
    layout = _bdry_sum(model)
    total = layout.total
    if lam.ambient_dim != total:
        raise ModuliError("lambda must live in the total reduced boundary space")
    cls = classify_subspace(pairing, lam)
    if not cls["lagrangian"]:
        raise NotLagrangian("lambda is not Lagrangian in the reduced boundary space")
    if lam.intersect(ev["reduced_L"]).dim != 0:
        raise NotTransversal("lambda meets the reduced evolution relation")
    el = kernel_basis(t.Q).matrix()
    comp_lam, lam_coords = quotient(Subspace.full(total), lam)
    # the boundary class of pi b is psi of the class of b, ghost by ghost
    classes = RatMatrix(total, el.cols)
    for g in model.ghosts:
        at_g = model.bulk.class_matrix(g, model.bulk.local(g, el))
        classes.add_block(layout.offsets[g], 0, model.psi(g) * at_g)
    cond = comp_lam.matrix() * lam_coords * classes
    S = column_span(el * kernel_basis(cond).matrix())
    # the gauge directions inside S: image vectors have exact boundary
    # classes, hence lie in S whenever the class condition is lam-closed
    I = image_basis(t.Q)
    if not S.contains_subspace(I):
        raise ModuliError("image of Q leaves the constrained space")
    # dimension agreement with the vacua
    vac = vacua(model)
    dim_s_mod_i = S.dim - I.dim
    vac_total = sum(vac["dims"].values())
    agree_dim = dim_s_mod_i == vac_total
    # pairing agreement through the class map into Im chi
    agree_pairing = True
    if t.omega is not None and S.dim:
        comp = quotient(S, I)[0].matrix()
        # the classes of the complement, in the basis of Im chi at each ghost
        imgs = RatMatrix(vac["pairing"].left_dim, comp.cols)
        for g in model.ghosts:
            inv = vac["vac_reps"][g]._coords_of(
                model.bulk.class_matrix(g, model.bulk.local(g, comp)))
            if inv is None:
                agree_pairing = False
            else:
                imgs.add_block(vac["offsets"][g], 0, inv)
        if _pairing_block(t.omega, comp, comp) != \
                _pairing_block(vac["pairing"].matrix, imgs, imgs):
            agree_pairing = False
    return {
        "S_dim": S.dim,
        "I_dim": I.dim,
        "reduced_dim": dim_s_mod_i,
        "agrees_with_vacua_dim": agree_dim,
        "agrees_with_vacua_pairing": agree_pairing,
    }


# --- the package's rank verdicts by elimination ----------------------------------


def exactness_by_subspaces(seq):
    """The verdicts of `complexes.verify_exactness` by elimination: at each
    interior node i of the sequence, Im maps[i-1] == ker maps[i] as
    `Subspace`s."""
    return [seq.image(i) == kernel_basis(seq.maps[i]) for i in range(1, len(seq.nodes) - 1)]


def vert_form_kernel_is_ker_chi_by_kernels(model):
    """`moduli.vacua`'s vert_form_kernel_is_ker_chi by elimination: per
    ghost g, the kernel of pair_vert_bulk(g) chi(c - g) against ker chi(c - g),
    the kernel out of the LES's vertical node at c - g."""
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
