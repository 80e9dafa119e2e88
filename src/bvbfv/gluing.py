"""Cutting and gluing: simplicial gluing of two complexes along identified
boundary subcomplexes, fiber products of Euler-Lagrange spaces, intrinsic
reconstruction of the symplectic moduli of the glued theory, and both
Mayer-Vietoris long exact sequences.

The theory-level operations take the ReducedModels of the glued theory and
of its two pieces, built once by the caller; the models' pieces map each
ghost block to flat coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import ExactSequenceReport, verify_exactness
from .linalg import (
    RatMatrix,
    Subspace,
    column_span,
    kernel_basis,
    quotient,
)
from .moduli import ReducedModel, _ghost_piece, symp_moduli
from .simplicial import IncoherentOrientation, OrientedComplex, _perm_sign
from .theories import LinearTheory


class GluingError(Exception):
    pass


class InterfaceMismatch(GluingError):
    pass


class OrientationClash(GluingError):
    pass


class GluingSpec:
    """Two complexes and an orientation-reversing identification of a left
    boundary subcomplex with a right one, given as vertex pairs."""

    def __init__(self, left: OrientedComplex, right: OrientedComplex, interface_map):
        self.left = left
        self.right = right
        self.pairs = [(l, r) for l, r in interface_map]
        if len({l for l, _ in self.pairs}) != len(self.pairs):
            raise InterfaceMismatch("left interface vertices repeat")
        if len({r for _, r in self.pairs}) != len(self.pairs):
            raise InterfaceMismatch("right interface vertices repeat")
        self.l_of_r = {r: l for l, r in self.pairs}
        self._validate()

    def _validate(self):
        lb = self.left.boundary_complex()
        rb = self.right.boundary_complex()
        lset = {l for l, _ in self.pairs}
        rset = {r for _, r in self.pairs}
        if not lset <= set(lb.vertex_ids):
            raise InterfaceMismatch("left interface vertices are not boundary vertices")
        if not rset <= set(rb.vertex_ids):
            raise InterfaceMismatch("right interface vertices are not boundary vertices")
        self.left_faces = {}
        self.right_faces = {}
        lfaces = {
            self.left.face_vertices(f)
            for f in self.left.boundary_faces()
            if set(self.left.face_vertices(f)) <= lset
        }
        rfaces = {
            self.right.face_vertices(f)
            for f in self.right.boundary_faces()
            if set(self.right.face_vertices(f)) <= rset
        }
        mapped = {tuple(sorted((self.l_of_r[v] for v in f), key=self._lkey))
                  for f in rfaces}
        lcanon = {tuple(sorted(f, key=self._lkey)) for f in lfaces}
        if mapped != lcanon:
            raise InterfaceMismatch(
                "identified boundary subcomplexes are not simplicially isomorphic"
            )

    def _lkey(self, v):
        return self.left.vertex_position(v)

    def interface_complex(self):
        """The interface as a complex with the orientation induced from the
        left piece."""
        lset = {l for l, _ in self.pairs}
        faces = []
        signs = []
        for f, s in self.left.boundary_faces().items():
            verts = self.left.face_vertices(f)
            if set(verts) <= lset:
                faces.append(list(verts))
                signs.append(int(s))
        verts = sorted({v for f in faces for v in f}, key=self._lkey)
        dim = self.left.dimension - 1
        return OrientedComplex(dim, verts, faces, signs)


def glue(spec: GluingSpec):
    """Glued oriented complex; raises OrientationClash if the interface
    identification does not reverse the induced boundary orientations."""
    left, right = spec.left, spec.right
    lmap = {v: f"L:{v}" for v in left.vertex_ids}
    rmap = {}
    for v in right.vertex_ids:
        rmap[v] = lmap[spec.l_of_r[v]] if v in spec.l_of_r else f"R:{v}"
    vertices = [lmap[v] for v in left.vertex_ids] + [
        rmap[v] for v in right.vertex_ids if v not in spec.l_of_r
    ]
    tops = [[lmap[v] for v in left.face_vertices(t)] for t in left.top]
    signs = [int(s) for s in left.top.values()]
    tops += [[rmap[v] for v in right.face_vertices(t)] for t in right.top]
    signs += [int(s) for s in right.top.values()]
    try:
        cx = OrientedComplex(left.dimension, vertices, tops, signs)
    except IncoherentOrientation as e:
        raise OrientationClash(
            f"interface identification does not reverse orientation: {e}"
        )
    cx.meta = {"left_map": lmap, "right_map": rmap, "spec": spec}
    return cx


def restriction_to_subcomplex(big: OrientedComplex, small: OrientedComplex, k, vmap):
    """C^k(big) -> C^k(small) along the embedding small -> big given by vmap
    (small vertex -> big vertex)."""
    m = RatMatrix(small.n_faces(k), big.n_faces(k))
    for f in small.faces(k):
        verts = small.face_vertices(f)
        imgs = [vmap[v] for v in verts]
        pos = [big.vertex_position(v) for v in imgs]
        sgn = _perm_sign(pos)
        m[small.face_index(k, f), big.face_index(k, tuple(sorted(pos)))] = sgn
    return m


def _bulk_restriction(t_big: LinearTheory, t_small: LinearTheory, vmap):
    """Flat restriction of cup-model bulk fields of the glued theory to a
    piece (both theories must have pure cochain sectors)."""
    m = RatMatrix(t_small.bulk.total, t_big.bulk.total)
    for slot in t_small.bulk.slots:
        sec, k = slot["sector"], slot["degree"]
        if not t_big.bulk.has(sec, k):
            continue
        block = restriction_to_subcomplex(t_big.cx, t_small.cx, k, vmap)
        r0 = t_small.bulk.offset(sec, k)
        c0 = t_big.bulk.offset(sec, k)
        for (i, j), v in block.entries.items():
            m[r0 + i, c0 + j] = v
    return m


def _interface_restriction(t: LinearTheory, iface: OrientedComplex, vmap):
    """Flat restriction of cup-model bulk fields to interface cochains,
    stacked per sector and degree (vmap: interface vertex -> bulk vertex),
    and the row offset of each (sector, degree)."""
    total = 0
    offsets = {}
    for slot in t.bulk.slots:
        sec, k = slot["sector"], slot["degree"]
        if k > iface.dimension:
            continue
        offsets[(sec, k)] = total
        total += iface.n_faces(k)
    m = RatMatrix(total, t.bulk.total)
    for slot in t.bulk.slots:
        sec, k = slot["sector"], slot["degree"]
        if k > iface.dimension:
            continue
        block = restriction_to_subcomplex(t.cx, iface, k, vmap)
        r0 = offsets[(sec, k)]
        c0 = t.bulk.offset(sec, k)
        for (i, j), v in block.entries.items():
            m[r0 + i, c0 + j] = v
    return m, offsets


def _interface_restrictions(t_left, t_right, spec: GluingSpec, iface):
    """The interface restrictions of the two pieces' bulk fields, the
    interface named by its left vertices, and the stacked offsets of the
    left one."""
    r_of_l = dict(spec.pairs)
    rho_l, offsets = _interface_restriction(
        t_left, iface, {v: v for v in iface.vertex_ids})
    rho_r, _ = _interface_restriction(
        t_right, iface, {v: r_of_l[v] for v in iface.vertex_ids})
    return rho_l, rho_r, offsets


def _piece_restrictions(t_glued, t_left, t_right):
    """The restrictions of the glued theory's bulk fields to the two
    pieces it was glued from."""
    meta = t_glued.cx.meta
    return tuple(
        _bulk_restriction(t_glued, t, {v: meta[key][v] for v in t.cx.vertex_ids})
        for t, key in ((t_left, "left_map"), (t_right, "right_map")))


def _cotangent_interface(t: LinearTheory, spec: GluingSpec, side):
    """Interface observables of a cotangent theory: boundary-field rows of
    pi supported on interface faces, in a left-labelled canonical order.
    Flux-type rows from the right piece carry the orientation-reversal sign."""
    iface_verts = {l for l, _ in spec.pairs} if side == "left" else \
        {r for _, r in spec.pairs}
    to_left = (lambda v: v) if side == "left" else \
        {r: l for l, r in spec.pairs}.__getitem__
    lkey = spec.left.vertex_position
    bc = t.cx.boundary_complex()
    flux = t.meta.get("bdry_flux_sectors", set())
    rows = {}
    off = 0
    for slot in t.bdry.slots:
        sec, k = slot["sector"], slot["degree"]
        for i, f in enumerate(bc.faces(k)):
            verts = bc.face_vertices(f)
            if not set(verts) <= iface_verts:
                continue
            key_verts = [to_left(v) for v in verts]
            pos = [lkey(v) for v in key_verts]
            sgn = _perm_sign(pos)
            if side == "right" and sec in flux:
                sgn = -sgn
            key = (sec, k, tuple(sorted(pos)))
            rows[key] = (off + i, sgn)
        off += slot["dim"]
    keys = sorted(rows, key=str)
    m = RatMatrix(len(keys), t.bulk.total)
    for r, key in enumerate(keys):
        src_row, sgn = rows[key]
        for (i, j), v in t.pi.entries.items():
            if i == src_row:
                m[r, j] = sgn * v
    return m


def _gh0_kernel(model: ReducedModel):
    """The ghost-zero Euler-Lagrange fields as flat bulk vectors."""
    return Subspace(model.t.bulk.total, [
        model.bulk.flat(0, b) for b in model.bulk.kernel(0).basis], check=False)


def fiber_product_check(model_glued, model_left, model_right, spec: GluingSpec):
    """dim EL of the glued theory equals the dimension of the fiber product
    of the pieces' EL spaces over the interface fields.

    Cup-model theories are compared in all ghost numbers (cochain fields are
    single-valued at the interface by construction).  Cotangent models are
    compared in the ghost-zero sector: their chain-model antifield homes
    carry interface-supported coordinates whose identification is a quotient
    rather than a matching condition, so only the classical sector has a
    discrete fiber-product statement.
    """
    t_left, t_right = model_left.t, model_right.t
    if t_left.model == "cotangent":
        el_n = _gh0_kernel(model_glued).dim
        el_l = _gh0_kernel(model_left)
        el_r = _gh0_kernel(model_right)
        rho_l = _cotangent_interface(t_left, spec, "left")
        rho_r = _cotangent_interface(t_right, spec, "right")
    else:
        el_n = model_glued.ker_q.dim
        el_l = model_left.ker_q
        el_r = model_right.ker_q
        rho_l, rho_r, _ = _interface_restrictions(
            t_left, t_right, spec, spec.interface_complex())
    if rho_l.rows != rho_r.rows:
        raise GluingError("interface field spaces disagree")
    na, nb = el_l.dim, el_r.dim
    cond = RatMatrix(rho_l.rows, na + nb)
    for j, b in enumerate(el_l.basis):
        for i, v in rho_l.matvec(b).items():
            cond[i, j] = v
    for j, b in enumerate(el_r.basis):
        for i, v in rho_r.matvec(b).items():
            cond[i, na + j] = cond[i, na + j] - v
    fp_dim = kernel_basis(cond).dim
    return {"el_glued_dim": el_n, "fiber_product_dim": fp_dim,
            "match": el_n == fp_dim}


def _require_cup(*theories):
    """Intrinsic gluing restricts bulk fields face by face, which needs
    pure cochain sectors: the cup model of bf and cs."""
    for t in theories:
        if t.model != "cup":
            raise GluingError(
                f"intrinsic gluing and Mayer-Vietoris need a cup-model theory "
                f"(bf or cs); {t.kind} is a {t.model} model")


def glue_moduli(model_left, model_right, spec: GluingSpec, model_glued):
    """Intrinsic reconstruction of the symplectic moduli of the glued theory:

      (i)  the fiber product of the pieces' symplectic moduli over the
           interface Euler-Lagrange fields,
      (ii) the quotient by the distribution generated by interface boundary
           fields through the beta maps,

    compared with the direct computation on the glued complex through an
    explicit isomorphism that also intertwines the bulk pairings with the
    fundamental-cycle decomposition sign epsilon."""
    t_left, t_right, t_glued = model_left.t, model_right.t, model_glued.t
    _require_cup(t_left, t_right, t_glued)
    iface = spec.interface_complex()
    msymp_l, msymp_r, msymp_n = model_left.msymp, model_right.msymp, model_glued.msymp
    sm_l = symp_moduli(model_left)
    sm_r = symp_moduli(model_right)
    rho_l, rho_r, _ = _interface_restrictions(t_left, t_right, spec, iface)
    ghosts = sorted(set(model_left.ghosts) | set(model_right.ghosts))
    mt_basis = {}      # ghost -> basis of M-tilde in (left reps + right reps) coords
    for g in ghosts:
        reps_l = sm_l["reps"].get(g, [])
        reps_r = sm_r["reps"].get(g, [])
        na, nb = len(reps_l), len(reps_r)
        cond = RatMatrix(rho_l.rows, na + nb)
        for j, rep in enumerate(reps_l):
            for i, v in rho_l.matvec(msymp_l.flat(g, rep)).items():
                cond[i, j] = v
        for j, rep in enumerate(reps_r):
            for i, v in rho_r.matvec(msymp_r.flat(g, rep)).items():
                cond[i, na + j] = cond[i, na + j] - v
        mt = kernel_basis(cond)
        mt_basis[g] = (mt, na, nb)
    # beta-tilde images of interface fields span the distribution to divide by
    rho_l_rows = rho_l.sparse_rows()
    rho_r_rows = rho_r.sparse_rows()
    beta_cols = {g: [] for g in ghosts}
    for g in ghosts:
        # interface fields of ghost g map into m-tilde at ghost g-1
        target = mt_basis.get(g - 1)
        if target is None:
            continue
        mt, na, nb = target
        if mt.dim == 0:
            continue
        for row in _interface_rows_of_ghost(t_left, iface, g):
            bl = _beta_value(model_left, rho_l_rows[row], g)
            br = _beta_value(model_right, rho_r_rows[row], g)
            vec = {**bl, **{na + i: v for i, v in br.items()}}
            if vec:
                x = mt.coords(vec)
                if x is None:
                    raise GluingError("beta-tilde image leaves the fiber product")
                beta_cols[g - 1].append(x)
    intrinsic_dims = {}
    quotients = {}
    for g in ghosts:
        mt, na, nb = mt_basis[g]
        dist = column_span(beta_cols.get(g, []), mt.dim)
        comp, coords = quotient(Subspace.full(mt.dim), dist) if mt.dim \
            else (Subspace.zero(0), None)
        intrinsic_dims[g] = comp.dim
        quotients[g] = (mt, comp, coords, na, nb)
    # direct computation on the glued complex
    sm_n = symp_moduli(model_glued)
    direct_dims = {g: d for g, d in sm_n["dims"].items()}
    dims_match = all(
        intrinsic_dims.get(g, 0) == direct_dims.get(g, 0)
        for g in set(intrinsic_dims) | set(direct_dims)
    )
    # explicit isomorphism: restrict glued representatives to the pieces
    res_l, res_r = _piece_restrictions(t_glued, t_left, t_right)
    iso_ok = dims_match
    pair_ok = True
    eps_l = _orientation_factor(t_glued, t_left, t_glued.cx.meta["left_map"])
    eps_r = _orientation_factor(t_glued, t_right, t_glued.cx.meta["right_map"])
    for g in ghosts:
        mt, comp, coords, na, nb = quotients[g]
        reps_n = sm_n["reps"].get(g, [])
        if len(reps_n) != comp.dim:
            iso_ok = False
            continue
        cols = []
        for rep in reps_n:
            flat = msymp_n.flat(g, rep)
            cl = _piece_coords(msymp_l, g, res_l.matvec(flat))
            cr = _piece_coords(msymp_r, g, res_r.matvec(flat))
            x = mt.coords({**cl, **{na + i: v for i, v in cr.items()}})
            if x is None:
                iso_ok = False
                break
            # quotient coordinates along the distribution
            if comp.dim:
                cols.append(coords.matvec(x))
        if len(cols) == len(reps_n) and comp.dim:
            if column_span(cols, comp.dim).dim != comp.dim:
                iso_ok = False
        # pairing intertwined on representatives (cochain-level identity)
        gp = model_glued.pair_ghost() - g
        for x in reps_n:
            xf = msymp_n.flat(g, x)
            for y in sm_n["reps"].get(gp, []):
                yf = msymp_n.flat(gp, y)
                lhs = t_glued.pair_bulk(xf, yf)
                rhs = eps_l * t_left.pair_bulk(res_l.matvec(xf), res_l.matvec(yf)) + \
                    eps_r * t_right.pair_bulk(res_r.matvec(xf), res_r.matvec(yf))
                if lhs != rhs:
                    pair_ok = False
    return {
        "intrinsic_dims": {g: d for g, d in intrinsic_dims.items() if d or direct_dims.get(g)},
        "direct_dims": {g: d for g, d in direct_dims.items() if d or intrinsic_dims.get(g)},
        "dims_match": dims_match,
        "isomorphism": iso_ok,
        "pairings_intertwined": pair_ok,
    }


def _interface_rows_of_ghost(t: LinearTheory, iface: OrientedComplex, g):
    """Stacked interface-coordinate rows whose slot has ghost g (layout as
    produced by _interface_restriction)."""
    rows = []
    total = 0
    for slot in t.bulk.slots:
        sec, k = slot["sector"], slot["degree"]
        if k > iface.dimension:
            continue
        if slot["ghost"] == g:
            rows.extend(range(total, total + iface.n_faces(k)))
        total += iface.n_faces(k)
    return rows


def _beta_value(model, entries, g):
    """[Q eta-lift] in M^symp coordinates, where eta is the interface field
    indicator of a stacked interface row (ghost g) with the given entries,
    extended by zero into the bulk.  Interface restriction rows carry
    exactly one +-1 entry, so lifting is direct."""
    if len(entries) != 1:
        raise GluingError("interface restriction row is not a single face")
    (col, val), = entries.items()
    lift = {col: Fraction(1) / val}
    qlift = model.t.Q.matvec(lift)
    return _piece_coords(model.msymp, g - 1, qlift)


def _piece_coords(piece, g, flat):
    """Class coordinates in a piece of a closed flat vector of ghost g."""
    local = piece.local(g, flat)
    if len(local) != len(flat):
        raise GluingError("vector is not ghost homogeneous")
    return piece.class_coords(g, local)


# ---------------------------------------------------------------------------
# Mayer-Vietoris sequences


def mayer_vietoris(model_glued, model_left, model_right, spec: GluingSpec):
    """Both Mayer-Vietoris long exact sequences at the theory level.

    Absolute: ... -> M_iface^{g+1} -> M_N^g -> M_L^g + M_R^g -> M_iface^g -> ...
    Partially reduced: the same shape with M replaced by the symplectic
    moduli relative to the outer boundary (interface-free verticals).
    Exactness is verified at every node of both; `pieces` holds the
    (glued, left, right) quotient pieces of each.
    """
    t_glued, t_left, t_right = model_glued.t, model_left.t, model_right.t
    _require_cup(t_glued, t_left, t_right)
    iface = spec.interface_complex()
    res_l, res_r = _piece_restrictions(t_glued, t_left, t_right)
    rho_l, rho_r, ioffs = _interface_restrictions(t_left, t_right, spec, iface)
    rho_l_rows = rho_l.sparse_rows()

    ghosts = sorted(set(t_glued.bulk.ghosts()) | {0})
    gmax, gmin = max(ghosts), min(ghosts)

    # interface differential on stacked interface fields
    qw = RatMatrix(rho_l.rows, rho_l.rows)
    for slot in t_left.bulk.slots:
        sec, k = slot["sector"], slot["degree"]
        if (sec, k) not in ioffs or (sec, k + 1) not in ioffs:
            continue
        d = iface.coboundary_matrix(k)
        r0 = ioffs[(sec, k + 1)]
        c0 = ioffs[(sec, k)]
        for (i, j), v in d.entries.items():
            qw[r0 + i, c0 + j] = v
    piece_w = _ghost_piece(
        "iface", qw, {g: _interface_rows_of_ghost(t_left, iface, g) for g in ghosts})

    def build_sequence(piece_n, piece_l, piece_r):
        """Generic MV over the given quotient pieces of the three theories."""
        nodes = []
        maps = []
        for g in range(gmax, gmin - 1, -1):
            nl, nr = piece_l.h_dim(g), piece_r.h_dim(g)
            nodes.append((f"glued@gh{g}", piece_n.h_dim(g)))
            # restriction map to the pieces
            m = RatMatrix(nl + nr, piece_n.h_dim(g))
            for j, rep in enumerate(piece_n.reps(g)):
                flat = piece_n.flat(g, rep)
                cl = _piece_coords(piece_l, g, res_l.matvec(flat))
                cr = _piece_coords(piece_r, g, res_r.matvec(flat))
                for i, v in cl.items():
                    m[i, j] = v
                for i, v in cr.items():
                    m[nl + i, j] = v
            maps.append(m)
            nodes.append((f"pieces@gh{g}", nl + nr))
            # difference of interface restrictions
            m2 = RatMatrix(piece_w.h_dim(g), nl + nr)
            for j, rep in enumerate(piece_l.reps(g)):
                w = rho_l.matvec(piece_l.flat(g, rep))
                for i, v in _piece_coords(piece_w, g, w).items():
                    m2[i, j] = v
            for j, rep in enumerate(piece_r.reps(g)):
                w = rho_r.matvec(piece_r.flat(g, rep))
                for i, v in _piece_coords(piece_w, g, w).items():
                    m2[i, nl + j] = m2[i, nl + j] - v
            maps.append(m2)
            nodes.append((f"iface@gh{g}", piece_w.h_dim(g)))
            # connecting map: one-sided section (extend into the left piece,
            # take its coboundary, embed into the glued complex)
            m3 = RatMatrix(piece_n.h_dim(g - 1), piece_w.h_dim(g))
            emb_l = res_l.transpose()
            for j, rep in enumerate(piece_w.reps(g)):
                a = {}
                for i, v in piece_w.flat(g, rep).items():
                    (col, s), = rho_l_rows[i].items()
                    a[col] = a.get(col, Fraction(0)) + v / s
                qa = t_left.Q.matvec({i: v for i, v in a.items() if v})
                z = emb_l.matvec(qa)
                for i, v in _piece_coords(piece_n, g - 1, z).items():
                    m3[i, j] = v
            maps.append(m3)
        nodes.append((f"glued@gh{gmin-1}", piece_n.h_dim(gmin - 1)))
        verdicts = verify_exactness(nodes, maps)
        return ExactSequenceReport(nodes, maps, verdicts)

    pieces = {
        # absolute: vertical = everything (plain Q-moduli)
        "absolute": (model_glued.bulk, model_left.bulk, model_right.bulk),
        # partially reduced: verticals vanish on the outer boundary only;
        # all of the glued boundary is outer, so its piece is the glued M_symp
        "partially_reduced": (model_glued.msymp, _outer_piece(model_left, spec, "left"),
                              _outer_piece(model_right, spec, "right")),
    }
    out = {kind: build_sequence(*p) for kind, p in pieces.items()}
    out["pieces"] = pieces
    return out


def _outer_piece(model: ReducedModel, spec: GluingSpec, side):
    """ker Q / Q(V) of a piece, with V the bulk fields that vanish on the
    outer (non-interface) part of its boundary."""
    t = model.t
    iface_verts = {l for l, _ in spec.pairs} if side == "left" else \
        {r for _, r in spec.pairs}
    bc = t.cx.boundary_complex()
    outer_rows = []
    off = 0
    for slot in t.bdry.slots:
        for i, f in enumerate(bc.faces(slot["degree"])):
            if not set(bc.face_vertices(f)) <= iface_verts:
                outer_rows.append(off + i)
        off += slot["dim"]
    vert = {}
    for g, idx in model.bulk.index.items():
        if idx:
            vert[g] = kernel_basis(t.pi.submatrix(outer_rows, idx)).matrix()
    return model.modulo_q("partially reduced", vert)


# ---------------------------------------------------------------------------
# morphism composition


def compose_morphisms(t1, t2, spec: GluingSpec, build):
    """Composition of two theories-as-morphisms along the shared boundary:
    glue the complexes, rebuild the theory, and verify action additivity,
    Lagrangianity of the composed evolution relation, and that the glued
    moduli agree with the intrinsic construction."""
    from .moduli import evolution_relation

    cx = glue(spec)
    t = build(cx)
    model, model_1, model_2 = ReducedModel(t), ReducedModel(t1), ReducedModel(t2)
    res_l, res_r = _piece_restrictions(t, t1, t2)
    eps = _orientation_factor(t, t1, cx.meta["left_map"])
    eps_r = _orientation_factor(t, t2, cx.meta["right_map"])
    s_sum = (res_l.transpose() * t1.S_mat * res_l).scale(eps) + \
        (res_r.transpose() * t2.S_mat * res_r).scale(eps_r)
    diff = t.S_mat - s_sum
    additive = (diff + diff.transpose()).is_zero()
    ev = evolution_relation(model)
    gm = glue_moduli(model_1, model_2, spec, model)
    return {
        "glued_complex": cx,
        "glued_theory": t,
        "action_additive": additive,
        "evolution_lagrangian": ev["verdict"]["lagrangian"],
        "moduli": gm,
    }


def _orientation_factor(t_glued, t_piece, vmap):
    """+1 or -1 according to how the glued fundamental class restricts to
    the piece (the gluing may have been performed against a reversed copy)."""
    factors = set()
    for face, s in t_piece.cx.top.items():
        verts = [vmap[v] for v in t_piece.cx.face_vertices(face)]
        pos = [t_glued.cx.vertex_position(v) for v in verts]
        sgn = _perm_sign(pos)
        key = tuple(sorted(pos))
        factors.add(int(t_glued.cx.top[key]) * sgn * int(s))
    if len(factors) != 1:
        raise GluingError("glued orientation does not restrict uniformly")
    return Fraction(factors.pop())
