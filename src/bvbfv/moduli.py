"""The linear reduction engine: Euler-Lagrange spaces, Q-reduction,
symplectic moduli, the long exact sequence of tangent spaces, Lefschetz
pairings, evolution relations, vacua and regularity verdicts -- for any
LinearTheory, as exact rational linear algebra.

Every phase takes the theory's one ReducedModel: its bulk, boundary and
vertical pieces are the BV-BFV data (Q, pi, Q_bdry) reduced once per ghost
number, and each phase reads what it needs off them.  Each piece owns the
layout of its ghosts in a flat field space.

pi restricts fields to boundary faces, so it is a coordinate projection:
each row is a single +-1 on a bulk coordinate of its own (`_unread` checks
this).  So the vertical piece ker pi is cut out of the flat bulk space by
the coordinates that pi does not read, and pi^T lifts; no block of pi is
eliminated.

The evolution relation and the vacua are computed on classes, off the
pieces and the tangent LES, with no elimination in the flat spaces.  The
vectors of ker Q that pi kills are the vertical cocycles, so
dim pi(ker Q) = sum_g (dim ker q(g) - dim ker q_vert(g)); pi of a Q-exact
vector is Q_bdry-exact, so the reduced L is the sum of the images of psi.
The induced vacua form pairs ghost g only with ghost c - g, so its kernel
splits by ghost and its core is counted one ghost at a time.  ker chi lies
in the vertical form's kernel ker(P chi), P = pair_vert_bulk, so the two
are equal exactly when rank(P chi) = rank chi, an LES image's dimension.

So does the verdict on L: the boundary pairing pairs ghost g only with
p(g) = c + 1 - g, in the block pd(g).  With S_g a basis of Im psi(g) and
X_g = S_g^T pd(g) S_p(g), L is isotropic iff every X_g is zero, and it is
coisotropic iff

    dim L - sum_h rank [X_p(h); X_h^T]  =  n - sum_h rank C_h,
    C_h = [S_p(h)^T pd(p(h)); S_p(h)^T pd(h)^T],

the two sides being the dimensions of L cap L^perp and of L^perp, with n
the dimension of the reduced boundary space.  When pd(h)^T = +-pd(p(h))
and pd(p(h)) is perfect, rank C_h = dim S_p(h) and nothing is eliminated;
each block's perfection is ranked once per model, for `lefschetz` too.

Literal regularity needs no complement either.  Under a nondegenerate
symmetric or antisymmetric form on Q^n, X^perp is one space of dimension
n - dim X, so X^perp = Y exactly when dim Y = n - dim X and omega(Y, X) = 0.
dim Im at ghost g is dim ker - dim H, the class space having checked Im
inside ker by the one product q(g) i(g) = 0 with the map i(g) into ghost g,
and the columns of i(g) span Y for the product.  So
too for q_reduce: under a nondegenerate omega, dim EL^perp = n - dim ker Q
= dim Im Q and Im Q lies in ker Q, so EL cap EL^perp = Im Q exactly when
omega(Im Q, ker Q) = 0.
"""

from __future__ import annotations

from functools import cached_property

from .complexes import ExactSequenceReport, _GradedPiece
from .linalg import (
    PairingForm,
    RatMatrix,
    Subspace,
    _coords_of_columns,
    _hstack,
    _plus_minus_symmetric,
    _unit_columns,
    _unread,
    solve,
    stacked_rank,
)
from .theories import LinearTheory


class ModuliError(Exception):
    pass


def _ghost_piece(name, m, idx):
    """The cohomology of a flat differential m that lowers the ghost number
    by one, on the flat indices idx[g] of each ghost g, which the piece
    keeps as its index."""
    blocks = {g: m.submatrix(idx.get(g - 1, []), rows) for g, rows in idx.items()}
    dims = {g: len(rows) for g, rows in idx.items()}
    piece = _GradedPiece.of_differential(name, dims, blocks, -1, ModuliError)
    piece.index, piece.total = idx, m.cols
    return piece


def _pairing_block(form, left, right):
    """[l_i . form r_j] over the columns l_i of left and r_j of right: the
    product left^T form right."""
    return left.transpose() * form * right


def _piece_pairing(form, left, g, right, gp):
    """`_pairing_block` of the flat form on the representatives of the
    piece left at ghost g and of the piece right at ghost gp: the block of
    the form on their flat coordinates, between the two."""
    block = form.submatrix(left.index.get(g, []), right.index.get(gp, []))
    return _pairing_block(block, left.reps(g), right.reps(gp))


class _GhostSum:
    """The direct sum over ghost numbers of spaces of dimension dims[g],
    laid out in ghost order: ghost g starts at offsets[g]."""

    def __init__(self, dims):
        self.offsets = {}
        self.total = 0
        for g, d in dims.items():
            self.offsets[g] = self.total
            self.total += d

    def pairing(self, block, partner):
        """The matrix with block(g) from ghost partner(g) to ghost g."""
        m = RatMatrix(self.total, self.total)
        for g, r in self.offsets.items():
            c = self.offsets.get(partner(g))
            if c is not None:
                m.add_block(r, c, block(g))
        return m


class ReducedModel:
    """Per-ghost reduction data for a LinearTheory: bulk, boundary and
    vertical complexes with representatives, the maps chi/psi/beta on
    cohomology, and the three Lefschetz pairings.  The vertical half is
    read off pi's columns on first use, so a phase that reads only the
    bulk and boundary pieces (the ghost-zero slice) does not pay for it;
    the tangent LES is built once (see `tangent_les`) and the phases read
    its kernels and images."""

    def __init__(self, t: LinearTheory):
        self.t = t
        ghosts = sorted(set(t.bulk.ghosts()) | set(t.bdry.ghosts()))
        self.ghosts = ghosts
        self.bulk = _ghost_piece("bulk", t.Q, {g: t.bulk.ghost_indices(g) for g in ghosts})
        self.bdry = _ghost_piece("boundary", t.Q_bdry,
                                 {g: t.bdry.ghost_indices(g) for g in ghosts})
        self._chi = {}
        self._psi = {}
        self._beta = {}
        self._pair = {}
        self._perfect = {}
        self._les = None

    # --- the vertical half, built on first use ------------------------------

    @cached_property
    def pi_blocks(self):
        return {g: self.t.pi.submatrix(self.bdry.index[g], self.bulk.index[g])
                for g in self.ghosts}

    def _unread_cols(self, g):
        """The bulk coordinates at ghost g that pi does not read."""
        return _unread(self.pi_blocks[g],
                       ModuliError("restriction map is not a coordinate projection"))

    @cached_property
    def K(self):
        """ker pi per ghost: the unit vectors of the bulk coordinates that pi
        does not read, in increasing order."""
        return {g: _unit_columns(self._unread_cols(g), self.bulk.dim(g)) for g in self.ghosts}

    @cached_property
    def vert(self):
        """The vertical complex ker pi, cut out of the flat bulk space by the
        coordinates that pi does not read; Q keeps it when pi q(g) K[g] = 0."""
        for g, k in self.K.items():
            if g - 1 in self.K and k.cols and \
                    not (self.pi_blocks[g - 1] * self.bulk.q(g) * k).is_zero():
                raise ModuliError("vertical complex is not Q-invariant")
        return _ghost_piece("vertical", self.t.Q, {
            g: [self.bulk.index[g][j] for j in self._unread_cols(g)] for g in self.ghosts})

    @cached_property
    def msymp(self):
        """M_symp = ker Q / Q(ker pi), sharing the bulk kernels."""
        return self.modulo_q("symplectic moduli", self.K)

    def modulo_q(self, name, K):
        """ker Q / Q(V): the bulk cocycles modulo the Q-images of a space V
        of bulk fields given per ghost g by the columns of K[g]."""
        return self.bulk.modulo(
            name, {g - 1: self.bulk.q(g) * k for g, k in K.items() if k.cols})

    def lift(self, g):
        """R = pi_blocks[g]^T, with pi_blocks[g] R = I: column j lifts the
        j-th boundary unit vector into the bulk, onto the one bulk
        coordinate that pi reads it off."""
        self._unread_cols(g)
        return self.pi_blocks[g].transpose()

    # --- induced maps on cohomology ---------------------------------------

    def chi(self, g):
        """H^g(vert) -> H^g(bulk), induced by the inclusion."""
        if g not in self._chi:
            reps = self.vert.reps(g)
            # a ghost with no classes may be missing from the blocks
            vecs = self.K[g] * reps if reps.cols else RatMatrix(self.bulk.dim(g), 0)
            self._chi[g] = self.bulk.class_matrix(g, vecs)
        return self._chi[g]

    def psi(self, g):
        """H^g(bulk) -> H^g(boundary), induced by the restriction."""
        if g not in self._psi:
            reps = self.bulk.reps(g)
            vecs = self.pi_blocks[g] * reps if reps.cols else RatMatrix(self.bdry.dim(g), 0)
            self._psi[g] = self.bdry.class_matrix(g, vecs)
        return self._psi[g]

    def beta(self, g):
        """Connecting map H^g(boundary) -> H^{g-1}(vert) by zig-zag."""
        if g not in self._beta:
            reps = self.bdry.reps(g)
            x = self.lift(g) * reps if reps.cols else RatMatrix(self.bulk.dim(g), 0)
            qx = self.t.Q * self.bulk.flat(g, x)
            v = self.vert.local(g - 1, qx)
            if v.nnz != qx.nnz:
                raise ModuliError("zig-zag image is not vertical")
            self._beta[g] = self.vert.class_matrix(g - 1, v)
        return self._beta[g]

    # --- pairings -----------------------------------------------------------

    def pair_vert_bulk(self, g):
        """P1: H^g(vert) x H^{c-g}(bulk) via the bulk pairing, where c is
        the pairing ghost (-1 plus the codimension shift)."""
        key = ("P1", g)
        if key not in self._pair:
            gp = self.pair_ghost() - g
            self._pair[key] = _piece_pairing(self.t.pair_bulk_mat, self.vert, g, self.bulk, gp)
        return self._pair[key]

    def pair_bulk_vert(self, g):
        """P2: H^g(bulk) x H^{c-g}(vert)."""
        key = ("P2", g)
        if key not in self._pair:
            gp = self.pair_ghost() - g
            self._pair[key] = _piece_pairing(self.t.pair_bulk_mat, self.bulk, g, self.vert, gp)
        return self._pair[key]

    def pair_bdry_bdry(self, g):
        """P_d: H^g(boundary) x H^{c+1-g}(boundary): the boundary pairing
        couples ghosts summing to one more than the bulk pairing ghost."""
        key = ("Pd", g)
        if key not in self._pair:
            gp = self.pair_ghost() + 1 - g
            self._pair[key] = _piece_pairing(self.t.omega_bdry, self.bdry, g, self.bdry, gp)
        return self._pair[key]

    def perfect(self, pair, g):
        """Whether the block pair(g) of one of the pairings above is perfect:
        square and of full rank.  Each block is ranked once per model, for
        `lefschetz` and `evolution_relation` alike."""
        key = (pair.__name__, g)
        if key not in self._perfect:
            self._perfect[key] = _perfect(pair(g))
        return self._perfect[key]

    def pair_ghost(self):
        # bulk pairing couples ghosts summing to -1 shifted by the codimension
        return -1 + (self.t.n - self.t.D)

    @cached_property
    def _omega_nondegenerate(self):
        """Whether omega is set and nondegenerate, for q_reduce and regularity."""
        n = self.t.bulk.total
        return self.t.omega is not None and PairingForm(n, n, self.t.omega).nondegenerate()


# ---------------------------------------------------------------------------
# operations


def el_space(model: ReducedModel):
    """ker Q per ghost number (the Euler-Lagrange space)."""
    out = {g: model.bulk.kernel(g) for g in model.ghosts}
    return {
        "dims": {g: s.dim for g, s in out.items() if model.bulk.dim(g)},
        "spaces": out,
    }


def q_reduce(model: ReducedModel):
    """M = ker Q / Im Q with representatives.

    On closed complexes with a nondegenerate field-level pairing this also
    verifies that the symplectic reduction of EL (quotient by EL cap
    EL-perp) coincides with the Q-reduction: EL cap EL-perp = Im Q exactly
    when omega(Im Q, ker Q) = 0 (see the module docstring).
    """
    t = model.t
    dims = {g: model.bulk.h_dim(g) for g in model.ghosts if model.bulk.dim(g)}
    report = {"dims": dims}
    if t.cx.is_closed() and model._omega_nondegenerate:
        report["symp_reduction_agrees"] = _perp_defect(
            model.ghosts, t.omega, t.bulk, _cocycles(model.bulk, model.ghosts),
            model.bulk) is None
    return report


def symp_moduli(model: ReducedModel):
    """M_symp = ker Q / Q(ker d-pi) (the piece model.msymp), its projection
    to EL of the boundary, and the degree-one map beta(eta) = [Q eta-lift],
    which is checked to vanish on Im Q_bdry and to fit the commuting square
    with Q_bdry."""
    msymp = model.msymp
    reps = {g: msymp.reps(g) for g in model.ghosts}
    dims = {g: r.cols for g, r in reps.items() if model.bulk.dim(g)}
    # pi_*: M_symp -> EL of the boundary, on representatives: the one
    # product Q_bdry pi R = 0 puts the images in the boundary kernel, and
    # their (unique) coordinates are read at the kernel's free columns
    pi_star = {}
    for g in model.ghosts:
        el_b = model.bdry.kernel(g)
        image = model.pi_blocks[g] * reps[g]
        if not (model.bdry.q(g) * image).is_zero():
            raise ModuliError("pi_* image is not a boundary solution")
        pi_star[g] = _coords_of_columns(el_b, image)
    # beta: boundary fields (not classes) -> M_symp, eta -> [Q eta-lift]
    beta_blocks = {}
    beta_kills_exact = True
    beta_square = True
    for g in model.ghosts:
        nb = model.bdry.dim(g)
        rows = reps[g - 1].cols if g - 1 in reps else 0
        out = RatMatrix(rows, nb)
        if nb and g - 1 in reps:
            qlift = model.bulk.q(g) * model.lift(g)
            out = msymp.class_matrix(g - 1, qlift)
            # commuting square: pi_*(beta(eta)) = Q_bdry eta in EL_bdry
            if rows and model.pi_blocks[g - 1] * qlift != model.bdry.q(g):
                beta_square = False
        beta_blocks[g] = out
        # beta vanishes on Im Q_bdry
        img = model.bdry.q(g + 1)
        if nb and img.cols and not (out * img).is_zero():
            beta_kills_exact = False
    return {
        "dims": dims,
        "reps": reps,
        "pi_star": pi_star,
        "beta": beta_blocks,
        "beta_vanishes_on_exact": beta_kills_exact,
        "beta_diagram_commutes": beta_square,
    }


def tangent_les(model: ReducedModel):
    """The long exact sequence of tangent spaces
    ... -> H^{g+1}(bdry) -> H^g(vert) -> H^g(bulk) -> H^g(bdry) -> ...
    with every node verified exact, built once per model."""
    if model._les is None:
        ghosts = model.ghosts
        gmax = max(ghosts)
        gmin = min(ghosts)
        nodes = []
        maps = []
        for g in range(gmax, gmin - 1, -1):
            nodes.append((f"vert@gh{g}", model.vert.h_dim(g)))
            maps.append(model.chi(g))
            nodes.append((f"bulk@gh{g}", model.bulk.h_dim(g)))
            maps.append(model.psi(g))
            nodes.append((f"bdry@gh{g}", model.bdry.h_dim(g)))
            maps.append(model.beta(g))
        nodes.append((f"vert@gh{gmin-1}", model.vert.h_dim(gmin - 1)))
        model._les = ExactSequenceReport(nodes, maps)
    return model._les


def _perfect(block):
    """A pairing block is perfect when it is square and of full rank."""
    return block.rows == block.cols and (not block.rows or block.rank() == block.rows)


def lefschetz(model: ReducedModel):
    """The three pairings of the duality package and their exact verdicts:
    nondegeneracy, self-adjointness of chi, mutual adjointness of psi and
    beta, and commutation of the chain-map square into the dual sequence."""
    t = model.t
    c = model.pair_ghost()
    # (P_bdry pi)^T omega_bdry: the boundary pairing of P_bdry pi x with y
    p_pi_omega = (t.P_bdry * t.pi).transpose() * t.omega_bdry
    verdicts = {
        "nondegenerate": True,
        "chi_self_adjoint": True,
        "psi_beta_adjoint": True,
        "dual_square_commutes": True,
    }
    for g in model.ghosts:
        gp = c - g
        p1 = model.pair_vert_bulk(g)
        p2 = model.pair_bulk_vert(g)
        if not all(model.perfect(pair, g) for pair in (
                model.pair_vert_bulk, model.pair_bulk_vert, model.pair_bdry_bdry)):
            verdicts["nondegenerate"] = False
        # chi self-adjointness: <chi u, w> = <u, chi w>
        x_g = model.chi(g)
        x_gp = model.chi(gp)
        if x_g.transpose() * p2 != p1 * x_gp:
            verdicts["chi_self_adjoint"] = False
        # psi/beta adjointness: <beta y, x> = sign <y, psi x>
        gb = g + 1  # boundary classes feeding vert at ghost g
        b = model.beta(gb)
        lhs = b.transpose() * p1
        rhs = (model.pair_bdry_bdry(gb) * model.psi(c - g)).scale(t.adj_beta_sign)
        if lhs != rhs:
            verdicts["psi_beta_adjoint"] = False
        # remaining square: P2 . beta = sign * [pair_bdry(P_bdry pi x, y)]
        bb = model.beta(c + 1 - g)
        lhs = p2 * bb
        w = _piece_pairing(p_pi_omega, model.bulk, g, model.bdry, c + 1 - g)
        if lhs != w.scale(t.adj_psi_sign):
            verdicts["dual_square_commutes"] = False
    return {"verdicts": verdicts}


def _bdry_sum(model: ReducedModel):
    """The total reduced boundary space: the sum of H^g(boundary)."""
    return _GhostSum({g: model.bdry.h_dim(g) for g in model.ghosts})


def evolution_relation(model: ReducedModel):
    """L = pi(ker Q), its image in the reduced boundary moduli, and the
    exact isotropic/coisotropic/lagrangian classification there.

    Both are read off the model and its tangent LES, one ghost at a time.
    The vectors of ker q(g) that pi kills are the vertical cocycles, so
    dim L = sum_g (dim ker q(g) - dim ker q_vert(g)).  pi of a Q-exact
    vector is Q_bdry-exact, so the class of pi x is psi of the class of x,
    and the reduced L is the sum over g of Im psi(g): the LES's image at
    node bdry@gh{g}, placed at ghost g's offset in the reduced space.

    The boundary pairing pairs ghost g only with p(g) = c + 1 - g, in the
    block pd(g) = pair_bdry_bdry(g), so the verdict is decided by rank
    counts on per-ghost blocks: with S_g a basis of Im psi(g) and
    X_g = S_g^T pd(g) S_p(g), L is isotropic iff every X_g is zero, and
    coisotropic iff dim L - sum_h rank [X_p(h); X_h^T] = n - sum_h rank C_h,
    C_h = [S_p(h)^T pd(p(h)); S_p(h)^T pd(h)^T] (see `_relation_verdict`).
    The perfect blocks are ranked once on the model."""
    les = tangent_les(model)
    layout = _bdry_sum(model)
    total = layout.total
    l_dim = sum(model.bulk.kernel(g).dim - model.vert.kernel(g).dim for g in model.ghosts)
    spans = {g: les.image(les.index[f"bdry@gh{g}"]) for g in model.ghosts}
    placed = RatMatrix(total, sum(s.dim for s in spans.values()))
    col = 0
    for g in model.ghosts:
        placed.add_block(layout.offsets[g], col, spans[g].matrix())
        col += spans[g].dim
    reduced = Subspace._of(placed)
    c = model.pair_ghost()

    def partner(g):
        return c + 1 - g

    pairing = PairingForm(total, total, layout.pairing(model.pair_bdry_bdry, partner))
    verdict = _relation_verdict(spans, model.pair_bdry_bdry, partner,
                                lambda g: model.perfect(model.pair_bdry_bdry, g))
    return {
        "L_dim": l_dim,
        "reduced_L": reduced,
        "reduced_dims_total": reduced.dim,
        "pairing": pairing,
        "offsets": layout.offsets,
        "verdict": verdict,
    }


def _relation_verdict(spans, block, partner, perfect):
    """Isotropic / coisotropic / lagrangian verdicts for the sum L of the
    subspaces spans[g], against the form on the sum of their ambient spaces
    V_g that pairs V_g only with V_p(g), p = partner an involution, in the
    block block(g) from V_p(g) to V_g; perfect(g) says whether block(g) is
    square and of full rank.  It decides them for the assembled form from
    rank counts on per-ghost blocks, with no complement built.

    With S_g a basis of spans[g] as columns, X_g = S_g^T block(g) S_p(g) is
    the form on L from ghost p(g) to ghost g, so L is isotropic iff every
    X_g is zero.  The two-sided complement of L is the sum over h of the
    kernels of C_h = [S_p(h)^T block(p(h)); S_p(h)^T block(h)^T] on V_h,
    and its meet with L at ghost h is the kernel of [X_p(h); X_h^T] on the
    coordinates of S_h.  L is coisotropic iff it contains its complement,
    that is iff the two have the same dimension:

        dim L - sum_h rank [X_p(h); X_h^T]  =  n - sum_h rank C_h,

    with n = sum_g dim V_g; a ghost whose partner is not in spans adds no
    condition.  When block(h)^T = +-block(p(h)) and block(p(h)) is perfect,
    rank C_h = dim S_p(h) with no elimination."""
    n = sum(s.ambient_dim for s in spans.values())
    l_dim = sum(s.dim for s in spans.values())
    paired = [g for g in spans if partner(g) in spans]
    mats = {g: spans[g].matrix() for g in spans}
    x = {g: mats[g].transpose() * block(g) * mats[partner(g)] for g in paired}
    isotropic = all(m.is_zero() for m in x.values())
    met = 0 if isotropic else sum(
        stacked_rank(x[partner(h)], x[h].transpose()) for h in paired)
    cut = 0
    for h in paired:
        p = partner(h)
        if not spans[p].dim:
            continue
        bt, bp = block(h).transpose(), block(p)
        if perfect(p) and (bt == bp or bt == bp.scale(-1)):
            cut += spans[p].dim
        else:
            st = mats[p].transpose()
            cut += stacked_rank(st * bp, st * bt)
    coisotropic = l_dim - met == n - cut
    return {
        "isotropic": isotropic,
        "coisotropic": coisotropic,
        "lagrangian": isotropic and coisotropic,
    }


def vacua(model: ReducedModel):
    """Im chi = ker psi with the induced ghost -1 pairing; the kernel of the
    vertical presymplectic form is checked to equal ker chi, and the
    dimensions of the nondegenerate core of the induced form are counted
    per ghost (boundary-flux artifacts of the finite model land in the
    form's kernel and are not counted).  Im chi, rank chi and the verdict
    Im chi = ker psi are read off the tangent LES.

    The form pairs ghost g only with ghost c - g, in the block induced(g)
    from ghost c - g to ghost g.  So a vector at ghost g lies in its
    two-sided kernel exactly when induced(g)^T and induced(c - g) kill it,
    the kernel is the sum of those per-ghost kernels, and the core at g
    has the dimension rank [induced(g)^T; induced(c - g)]."""
    c = model.pair_ghost()
    les = tangent_les(model)
    vac_reps = {g: les.image(les.index[f"bulk@gh{g}"]) for g in model.ghosts}
    im_eq_ker = all(les.exact_at(f"bulk@gh{g}") for g in model.ghosts)
    # ker(P chi) = ker chi by ranks; a ghost c - g outside the sequence
    # has no vertical classes
    ker_match = True
    for g in model.ghosts:
        node = les.index.get(f"bulk@gh{c - g}")
        if node is not None and \
                (model.pair_vert_bulk(g) * model.chi(c - g)).rank() != les.image(node).dim:
            ker_match = False
    # induced pairing on Im chi
    layout = _GhostSum({g: vac_reps[g].dim for g in model.ghosts})
    total = layout.total

    def induced(g):
        gp = c - g
        if not (vac_reps[g].dim and vac_reps[gp].dim):
            return RatMatrix(vac_reps[g].dim, vac_reps[gp].dim)
        # the vertical preimages of all of Im chi(gp), from one elimination
        pre = solve(model.chi(gp), vac_reps[gp].matrix())
        if pre is None:
            raise ModuliError("vacua class has no vertical preimage")
        return _pairing_block(model.pair_bulk_vert(g), vac_reps[g].matrix(), pre)

    blocks = {g: induced(g) for g in model.ghosts if c - g in vac_reps}
    pairing = PairingForm(total, total, layout.pairing(blocks.__getitem__, lambda g: c - g))
    core_dims = {g: stacked_rank(blocks[g].transpose(), blocks[c - g])
                 if g in blocks else 0 for g in model.ghosts}
    dims = {g: vac_reps[g].dim for g in model.ghosts}
    return {
        "dims": {g: d for g, d in dims.items() if model.bulk.dim(g)},
        "core_dims": {g: d for g, d in core_dims.items() if model.bulk.dim(g)},
        "im_chi_equals_ker_psi": im_eq_ker,
        "vert_form_kernel_is_ker_chi": ker_match,
        "pairing": pairing,
        "vac_reps": vac_reps,
        "offsets": layout.offsets,
    }


def regularity(model: ReducedModel):
    """Regularity verdicts of a cotangent model: the literal orthogonality
    identities
      ker(Q)^perp = Im(Q^vert), ker(Q^vert)^perp = Im(Q),
      ker(Q_bdry)^perp = Im(Q_bdry)
    against the field-level pairings, each decided by a dimension count and
    one product (see the module docstring); a pairing that is degenerate or
    not +-symmetric is refused.  The witness names the first identity that
    fails and its gap (n - dim X) - dim Y, or at gap 0 the slot (sector,
    degree, local index) of the first column of Y not orthogonal to X.  Cup
    models have no field-level pairing to check; moduli_report gives them
    the reduced-level surrogate."""
    t = model.t
    if t.model != "cotangent":
        raise ModuliError("literal regularity needs a cotangent model")
    if not (_plus_minus_symmetric(t.omega) and model._omega_nondegenerate
            and _plus_minus_symmetric(t.omega_bdry)
            and PairingForm(t.bdry.total, t.bdry.total, t.omega_bdry).nondegenerate()):
        raise ModuliError("literal regularity needs nondegenerate +-symmetric pairings")
    # Q^vert = Q on ker pi: its images q(g) K[g] are the ones M_symp divides out
    ker_qv = _cocycles(model.vert, model.ghosts)
    ker_q = _cocycles(model.bulk, model.ghosts)
    ker_qb = _cocycles(model.bdry, model.ghosts)
    defects = {name: _perp_defect(model.ghosts, *args) for name, args in (
        ("ker_q_perp_is_im_q_vert", (t.omega, t.bulk, ker_q, model.msymp)),
        ("ker_q_vert_perp_is_im_q", (t.omega, t.bulk, ker_qv, model.bulk)),
        ("bdry_ker_perp_is_im", (t.omega_bdry, t.bdry, ker_qb, model.bdry)))}
    checks = {name: d is None for name, d in defects.items()}
    witness = next(({"identity": name, **d} for name, d in defects.items() if d), None)
    return {"mode": "literal", "checks": checks,
            "regular": all(checks.values()), "witness": witness}


def _cocycles(piece, ghosts):
    """The kernel vectors of a piece at each ghost, as the flat columns of
    one matrix."""
    return _hstack(piece.total, [piece.flat(g, piece.kernel(g).matrix()) for g in ghosts])


def _perp_defect(ghosts, form, space, ker, im):
    """None when ker^perp (ker a flat basis as the columns of a matrix, form
    on the field space `space`) is the image that the piece im divides out;
    otherwise the gap, or the slot of the first spanning column of that
    image not orthogonal to ker."""
    gap = space.total - ker.cols - sum(im.kernel(g).dim - im.h_dim(g) for g in ghosts)
    if gap:
        return {"gap": gap}
    cols = _hstack(space.total, [im.flat(g, im.ins[g]) for g in ghosts if g in im.ins])
    block = _pairing_block(form, cols, ker)
    if block.is_zero():
        return None
    first = min(i for i, _ in block.ints)
    slot, local = space.slot_of(min(i for i, j in cols.ints if j == first))
    return {"slot": (slot["sector"], slot["degree"], local)}


def ed_formula_check(model: ReducedModel):
    """Cross-check of the electrodynamics moduli against the stored
    topological formulas: ghost/antifield sectors (c, A+, c+) must equal
    H^0(N), H^{n-1}(N), H^n(N) on every complex; the gauge-field sector is
    compared only on closed complexes and flagged as model-dependent
    otherwise (the discrete adjoint-differential model collapses the Maxwell
    space to cohomology)."""
    t = model.t
    if t.kind != "electrodynamics":
        raise ModuliError("formula check applies to electrodynamics")
    cc = t.cx.cochain_complex()
    betti = cc.betti()
    n = t.n

    def slot_indices(names):
        out = []
        for s in t.bulk.slots:
            if s["sector"] in names:
                off = t.bulk.offset(s["sector"], s["degree"])
                out.extend(range(off, off + s["dim"]))
        return out

    b_idx = slot_indices({"B", "B1"})
    ap_idx = slot_indices({"A+", "A0+"})
    cp_idx = slot_indices({"c+"})
    # d2: B -> A+ and d1: A+ -> c+; dim ker d1 = |A+| - rank d1
    rank1 = t.Q.submatrix(cp_idx, ap_idx).rank()
    rank2 = t.Q.submatrix(ap_idx, b_idx).rank()
    a_dag_model = len(ap_idx) - rank1 - rank2
    c_dag_model = len(cp_idx) - rank1
    c_model = model.bulk.h_dim(1)
    checks = {
        "c_sector": (c_model, betti.get(0, 0)),
        "A_dagger_sector": (a_dag_model, betti.get(n - 1, 0)),
        "c_dagger_sector": (c_dag_model, betti.get(n, 0)),
    }
    result = {k: {"model": m, "formula": f, "match": m == f}
              for k, (m, f) in checks.items()}
    a_model = model.bulk.h_dim(0)
    a_formula = betti.get(1, 0)
    result["A_sector"] = {
        "model": a_model,
        "formula": a_formula,
        "match": a_model == a_formula if t.cx.is_closed() else None,
        "model_dependent": not t.cx.is_closed(),
    }
    result["all_required_match"] = all(
        v["match"] for k, v in result.items()
        if k in ("c_sector", "A_dagger_sector", "c_dagger_sector")
    ) and (result["A_sector"]["match"] is not False)
    return result


def moduli_report(model: ReducedModel):
    """The full report: dimensions of every reduced space per ghost number,
    map matrices, pairing verdicts.  Regularity is literal on cotangent
    models; on cup models it is the reduced-level surrogate, Lefschetz
    nondegeneracy plus ker(vertical form) = ker chi."""
    t = model.t
    el = el_space(model)
    qr = q_reduce(model)
    sm = symp_moduli(model)
    les = tangent_les(model)
    lf = lefschetz(model)
    ev = evolution_relation(model)
    vac = vacua(model)
    if t.model == "cotangent":
        reg = regularity(model)
    else:
        checks = {
            "lefschetz_nondegenerate": lf["verdicts"]["nondegenerate"],
            "vert_form_kernel_is_ker_chi": vac["vert_form_kernel_is_ker_chi"],
        }
        reg = {"mode": "reduced-surrogate", "checks": checks,
               "regular": all(checks.values())}
    bdry_dims = {g: model.bdry.h_dim(g) for g in model.ghosts if model.bdry.dim(g)}
    return {
        "theory": t.name,
        "complex_closed": t.cx.is_closed(),
        "el_dims": el["dims"],
        "moduli_dims": qr["dims"],
        "moduli_symp_dims": sm["dims"],
        "boundary_moduli_dims": bdry_dims,
        "les_exact": les.exact,
        "les_nodes": les.summary()["nodes"],
        "lefschetz": lf["verdicts"],
        "evolution_relation": {
            "reduced_dim": ev["reduced_dims_total"],
            **ev["verdict"],
        },
        "vacua_dims": vac["dims"],
        "vacua_core_dims": vac["core_dims"],
        "vacua_checks": {
            "im_chi_equals_ker_psi": vac["im_chi_equals_ker_psi"],
            "vert_form_kernel_is_ker_chi": vac["vert_form_kernel_is_ker_chi"],
        },
        "regularity": {k: reg[k] for k in ("mode", "regular", "checks")},
        "beta_diagram_commutes": sm["beta_diagram_commutes"],
        "beta_vanishes_on_exact": sm["beta_vanishes_on_exact"],
        "symp_reduction_agrees": qr.get("symp_reduction_agrees"),
    }
