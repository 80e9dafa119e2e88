"""Cutting and gluing: simplicial gluing of two complexes along identified
boundary subcomplexes, fiber products of Euler-Lagrange spaces, intrinsic
reconstruction of the symplectic moduli of the glued theory, and both
Mayer-Vietoris long exact sequences.

One `Gluing` per glue op holds the spec and the ReducedModels of the glued
theory and of its two pieces, built once by the caller, and builds on first
use what the gluing phases share: the interface fields and their relative
rows, the interface restrictions and their sections, and the restrictions
to the pieces.  Each phase takes the `Gluing`; the models' pieces map each
ghost block to flat coordinates.

The interface Sigma (`spec.interface`) is the one source of interface
coordinates: every map onto it is `OrientedComplex.restriction` to Sigma,
slot by slot (`_restriction`).  A cup model's bulk restriction rho lands on
`fields`, its bulk slots laid out on Sigma.  `to_interface` restricts each
piece's boundary fields to Sigma; a cotangent model's rho is it after pi,
and the outer boundary rows of a piece are the ones it does not read.  The
relative interface rows are Sigma's interior columns, and the interface
differential of Mayer-Vietoris is rho_l Q rho_l^T, read off the left
piece's Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import ExactSequenceReport, shared_eliminations
from .linalg import (
    RatMatrix,
    Subspace,
    _coords_of_columns,
    _hstack,
    _kernel_quotient,
    _unit_columns,
    _unread,
    _vstack,
    column_span,
    kernel_basis,
)
from .moduli import ReducedModel, _cocycles, _ghost_piece, _pairing_block
from .simplicial import IncoherentOrientation, OrientedComplex, _perm_sign
from .theories import FieldSpace, set_block


class GluingError(Exception):
    pass


class InterfaceMismatch(GluingError):
    pass


class OrientationClash(GluingError):
    pass


class GluingSpec:
    """Two complexes and an orientation-reversing identification of a left
    boundary subcomplex with a right one, given as vertex pairs.

    `interface` is the identified subcomplex, named by its left vertices,
    with the orientation induced from the left piece."""

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
        # face vertices come in left vertex order, with the induced sign
        lfaces = {}
        for f, s in self.left.boundary_faces().items():
            verts = self.left.face_vertices(f)
            if set(verts) <= lset:
                lfaces[verts] = int(s)
        rfaces = {
            self.right.face_vertices(f)
            for f in self.right.boundary_faces()
            if set(self.right.face_vertices(f)) <= rset
        }
        lkey = self.left.vertex_position
        mapped = {tuple(sorted((self.l_of_r[v] for v in f), key=lkey)) for f in rfaces}
        if mapped != set(lfaces):
            raise InterfaceMismatch(
                "identified boundary subcomplexes are not simplicially isomorphic"
            )
        self.interface = OrientedComplex(
            self.left.dimension - 1, sorted({v for f in lfaces for v in f}, key=lkey),
            [list(f) for f in lfaces], list(lfaces.values()))


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
    cx.meta = {"left_map": lmap, "right_map": rmap}
    return cx


def _restriction(rows: FieldSpace, cols: FieldSpace, cx: OrientedComplex,
                 small: OrientedComplex, vmap):
    """Flat restriction, slot by slot, of the fields laid out by cols on the
    cochains of cx to those laid out by rows on the subcomplex small
    (vmap: small vertex -> vertex of cx)."""
    m = RatMatrix(rows.total, cols.total)
    for slot in rows.slots:
        sk = (slot["sector"], slot["degree"])
        if cols.has(*sk):
            set_block(m, rows, sk, cols, sk, cx.restriction(small, sk[1], vmap))
    return m


class Gluing:
    """One glue op: the spec and the ReducedModels of the glued theory and
    of its left and right pieces.  What the gluing phases share is built
    on first use and kept."""

    def __init__(self, spec: GluingSpec, glued: ReducedModel, left: ReducedModel,
                 right: ReducedModel):
        self.spec = spec
        self.glued = glued
        self.left = left
        self.right = right

    @cached_property
    def vmaps(self):
        """(left, right) maps of the interface vertices to the pieces'."""
        return {l: l for l, _ in self.spec.pairs}, dict(self.spec.pairs)

    @cached_property
    def fields(self):
        """The interface cochains: the bulk slots of the left piece laid
        out on the faces of the interface, each with its ghost."""
        return self.left.t.bulk.on(self.spec.interface)

    @cached_property
    def _relative_rows(self):
        """Per ghost, the rows of `fields` on the interior faces of the
        interface: the relative cochains C(Sigma, dSigma).  A face on dSigma
        stays on the outer boundary of the glued complex: it is not gauge."""
        iface = self.spec.interface
        out = {}
        for slot in self.fields.slots:
            k = slot["degree"]
            off = self.fields.offset(slot["sector"], k)
            out.setdefault(slot["ghost"], []).extend(off + j for j in iface._interior_cols(k))
        return out

    @cached_property
    def to_interface(self):
        """(left, right) restrictions of the pieces' boundary fields to the
        interface, laid out on its faces.  The right piece induces the
        opposite orientation there, so its flux rows are negated."""
        iface = self.spec.interface
        out = []
        for model, vmap, flip in zip((self.left, self.right), self.vmaps, (1, -1)):
            t = model.t
            flux = t.meta.get("bdry_flux_sectors", ())
            fields = t.bdry.on(iface)
            sign = fields.diag_sign(lambda sec, k, g: flip if sec in flux else 1)
            out.append(sign * _restriction(fields, t.bdry, t.cx.boundary_complex(), iface, vmap))
        return tuple(out)

    @cached_property
    def rho(self):
        """The (left, right) restrictions of the pieces' bulk fields to the
        interface: onto `fields` for cup models, through the boundary
        fields (`to_interface` after pi) for cotangent models."""
        if self.left.t.model == "cotangent":
            return tuple(r * m.t.pi for r, m in zip(self.to_interface, (self.left, self.right)))
        iface = self.spec.interface
        return tuple(_restriction(self.fields, m.t.bulk, m.t.cx, iface, vmap)
                     for m, vmap in zip((self.left, self.right), self.vmaps))

    @cached_property
    def sections(self):
        """rho^T for each side, a section of rho: each interface coordinate
        extended by zero into the bulk.  Holds when every row of rho is a
        single +-1 entry on its own column (see `_unread`)."""
        for rho in self.rho:
            _unread(rho, GluingError("interface restriction row is not a single face"))
        return tuple(rho.transpose() for rho in self.rho)

    @cached_property
    def res(self):
        """(restriction, orientation factor) of the glued bulk fields to
        the left and to the right piece."""
        t = self.glued.t
        return tuple(
            (_restriction(m.t.bulk, t.bulk, t.cx, m.t.cx, t.cx.meta[key]),
             _orientation_factor(t, m.t, t.cx.meta[key]))
            for m, key in ((self.left, "left_map"), (self.right, "right_map")))


def _fiber_product(rho_l, left, rho_r, right):
    """The system S = [rho_l L | -rho_r R] and its kernel_basis: the pairs
    of combinations of the columns of the flat matrices L = left and
    R = right that agree on the interface."""
    system = _hstack(rho_l.rows, [rho_l * left, (rho_r * right).scale(-1)])
    return system, kernel_basis(system)


def _fiber_coords(system, fp, v):
    """The coordinates in fp = ker system of each column of v, as the
    columns of one matrix, or None when one of them leaves fp.  Membership
    is the one product system v = 0, and the coordinates are read off v's
    rows at fp's free columns with no solve."""
    if not (system * v).is_zero():
        return None
    return _coords_of_columns(fp, v)


def fiber_product_check(gl: Gluing):
    """dim EL of the glued theory equals the dimension of the fiber product
    of the pieces' EL spaces over the interface fields.

    Cup-model theories are compared in all ghost numbers (cochain fields are
    single-valued at the interface by construction).  Cotangent models are
    compared in the ghost-zero sector: their chain-model antifield homes
    carry interface-supported coordinates whose identification is a quotient
    rather than a matching condition, so only the classical sector has a
    discrete fiber-product statement.  rho keeps the ghost number, so the
    fiber product is counted one ghost at a time.
    """
    ghosts = [0] if gl.left.t.model == "cotangent" else \
        sorted({g for m in (gl.glued, gl.left, gl.right) for g in m.ghosts})
    rho_l, rho_r = gl.rho
    if rho_l.rows != rho_r.rows:
        raise GluingError("interface field spaces disagree")
    el_n = sum(gl.glued.bulk.kernel(g).dim for g in ghosts)
    fp_dim = sum(_fiber_product(rho_l, _cocycles(gl.left.bulk, [g]),
                                rho_r, _cocycles(gl.right.bulk, [g]))[1].dim for g in ghosts)
    return {"el_glued_dim": el_n, "fiber_product_dim": fp_dim,
            "match": el_n == fp_dim}


def _require_cup(*theories):
    """Intrinsic gluing restricts bulk fields face by face, which needs
    pure cochain sectors: a cup model.  Every cup model glues: bf and cs,
    and the bf and ed strata of `--codim 1`.  The error names that
    requirement and the kind and model of the theory it refuses."""
    for t in theories:
        if t.model != "cup":
            raise GluingError(
                f"intrinsic gluing and Mayer-Vietoris need a cup model; "
                f"{t.kind} is a {t.model} model")


def glue_moduli(gl: Gluing):
    """Intrinsic reconstruction of the symplectic moduli of the glued theory:

      (i)  the fiber product of the pieces' symplectic moduli over the
           interface Euler-Lagrange fields,
      (ii) the quotient by the distribution generated by the interface
           fields that vanish on the boundary of the interface, the
           relative cochains C(Sigma, dSigma), through the beta maps,

    compared with the direct computation on the glued complex through an
    explicit isomorphism that also intertwines the bulk pairings with the
    fundamental-cycle decomposition sign epsilon."""
    model_left, model_right, model_glued = gl.left, gl.right, gl.glued
    t_left, t_right, t_glued = model_left.t, model_right.t, model_glued.t
    _require_cup(t_left, t_right, t_glued)
    msymp_l, msymp_r, msymp_n = model_left.msymp, model_right.msymp, model_glued.msymp
    rho_l, rho_r = gl.rho
    ghosts = sorted(set(model_left.ghosts) | set(model_right.ghosts))
    # ghost -> (system, M-tilde = its kernel in (left reps + right reps)
    # coords)
    mt_basis = {g: _fiber_product(rho_l, msymp_l.flat(g, msymp_l.reps(g)),
                                  rho_r, msymp_r.flat(g, msymp_r.reps(g))) for g in ghosts}
    # beta-tilde images of interface fields span the distribution to divide by
    sec_l, sec_r = gl.sections
    beta_cols = {}
    for g in ghosts:
        # interface fields of ghost g map into m-tilde at ghost g-1
        target = mt_basis.get(g - 1)
        if target is None:
            continue
        system, mt = target
        if mt.dim == 0:
            continue
        rows = gl._relative_rows.get(g, [])
        xs = _fiber_coords(system, mt, _vstack(len(rows), [
            _beta_block(model_left, sec_l, rows, g), _beta_block(model_right, sec_r, rows, g)]))
        if xs is None:
            raise GluingError("beta-tilde image leaves the fiber product")
        beta_cols[g - 1] = xs
    intrinsic_dims = {}
    quotients = {}
    for g in ghosts:
        mt = mt_basis[g][1]
        # Q^mt.dim is the kernel of the map to the zero space, so the
        # quotient reads the distribution's coordinates off the beta-tilde
        # columns with no solve; it depends only on their span
        comp, coords = _kernel_quotient(
            RatMatrix.zero(0, mt.dim), Subspace.full(mt.dim), beta_cols.get(g)) if mt.dim \
            else (Subspace.zero(0), None)
        intrinsic_dims[g] = comp.dim
        quotients[g] = (comp, coords)
    # direct computation on the glued complex
    direct_dims = {g: msymp_n.h_dim(g) for g in model_glued.ghosts
                   if model_glued.bulk.dim(g)}
    dims_match = all(
        intrinsic_dims.get(g, 0) == direct_dims.get(g, 0)
        for g in set(intrinsic_dims) | set(direct_dims)
    )
    # explicit isomorphism: restrict glued representatives to the pieces
    (res_l, eps_l), (res_r, eps_r) = gl.res
    restricted = {}

    def restrict(g):
        """The glued representatives at ghost g as flat columns, and their
        restrictions to the left and to the right piece, once per ghost."""
        if g not in restricted:
            flats = msymp_n.flat(g, msymp_n.reps(g))
            restricted[g] = (flats, res_l * flats, res_r * flats)
        return restricted[g]

    iso_ok = dims_match
    pair_ok = True
    for g in ghosts:
        system, mt = mt_basis[g]
        comp, coords = quotients[g]
        if msymp_n.h_dim(g) != comp.dim:
            iso_ok = False
            continue
        flats, on_l, on_r = restrict(g)
        xs = _fiber_coords(system, mt, _vstack(flats.cols, [
            _piece_coords(msymp_l, g, on_l), _piece_coords(msymp_r, g, on_r)]))
        if xs is None:
            iso_ok = False
        elif comp.dim and column_span(coords * xs).dim != comp.dim:
            # their quotient coordinates along the distribution must span
            iso_ok = False
        # pairing intertwined on representatives (cochain-level identity),
        # as pairing blocks: glued = eps_l left + eps_r right
        flats_p, on_lp, on_rp = restrict(model_glued.pair_ghost() - g)
        lhs = _pairing_block(t_glued.pair_bulk_mat, flats, flats_p)
        rhs = _pairing_block(t_left.pair_bulk_mat, on_l, on_lp).scale(eps_l) + \
            _pairing_block(t_right.pair_bulk_mat, on_r, on_rp).scale(eps_r)
        if lhs != rhs:
            pair_ok = False
    return {
        "intrinsic_dims": {g: d for g, d in intrinsic_dims.items() if d or direct_dims.get(g)},
        "direct_dims": {g: d for g, d in direct_dims.items() if d or intrinsic_dims.get(g)},
        "dims_match": dims_match,
        "isomorphism": iso_ok,
        "pairings_intertwined": pair_ok,
    }


def _beta_block(model, section, rows, g):
    """[Q eta-lift] in M^symp coordinates at ghost g - 1, one column per
    interface coordinate in rows (ghost g): eta is the indicator of that
    coordinate, lifted into the bulk by section."""
    lifts = section * _unit_columns(rows, section.cols)
    return _piece_coords(model.msymp, g - 1, model.t.Q * lifts)


def _piece_coords(piece, g, flat):
    """Class coordinates in a piece of the closed flat columns of ghost g
    of the matrix flat."""
    local = piece.local(g, flat)
    if local.nnz != flat.nnz:
        raise GluingError("vector is not ghost homogeneous")
    return piece.class_matrix(g, local)


# ---------------------------------------------------------------------------
# Mayer-Vietoris sequences


def mayer_vietoris(gl: Gluing):
    """Both Mayer-Vietoris long exact sequences at the theory level.

    Absolute: ... -> M_iface^{g+1} -> M_N^g -> M_L^g + M_R^g -> M_iface^g -> ...
    Partially reduced: the same shape with M replaced by the symplectic
    moduli relative to the outer boundary (interface-free verticals).
    Exactness is verified at every node of both; `pieces` holds the
    (glued, left, right) quotient pieces of each.
    """
    model_glued, model_left, model_right = gl.glued, gl.left, gl.right
    _require_cup(model_glued.t, model_left.t, model_right.t)
    (res_l, _), (res_r, _) = gl.res
    rho_l, rho_r = gl.rho
    sec_l, _ = gl.sections
    emb_l = res_l.transpose()

    ghosts = sorted(set(model_glued.t.bulk.ghosts()) | {0})
    gmax, gmin = max(ghosts), min(ghosts)

    # the interface differential: extend by zero into the left piece, take
    # its Q and restrict back (restriction commutes with d, rho sec = 1)
    qw = rho_l * model_left.t.Q * sec_l
    piece_w = _ghost_piece("iface", qw, {g: gl.fields.ghost_indices(g) for g in ghosts})

    def build_sequence(piece_n, piece_l, piece_r):
        """Generic MV over the given quotient pieces of the three theories."""
        nodes = []
        maps = []
        for g in range(gmax, gmin - 1, -1):
            nl, nr = piece_l.h_dim(g), piece_r.h_dim(g)
            nodes.append((f"glued@gh{g}", piece_n.h_dim(g)))
            # restriction map to the pieces
            flats = piece_n.flat(g, piece_n.reps(g))
            maps.append(_vstack(flats.cols, [_piece_coords(piece_l, g, res_l * flats),
                                             _piece_coords(piece_r, g, res_r * flats)]))
            nodes.append((f"pieces@gh{g}", nl + nr))
            # difference of interface restrictions
            maps.append(_hstack(piece_w.h_dim(g), [
                _piece_coords(piece_w, g, rho_l * piece_l.flat(g, piece_l.reps(g))),
                _piece_coords(piece_w, g, rho_r * piece_r.flat(g, piece_r.reps(g))).scale(-1)]))
            nodes.append((f"iface@gh{g}", piece_w.h_dim(g)))
            # connecting map: one-sided section (extend into the left piece,
            # take its coboundary, embed into the glued complex)
            lifted = model_left.t.Q * (sec_l * piece_w.flat(g, piece_w.reps(g)))
            maps.append(_piece_coords(piece_n, g - 1, emb_l * lifted))
        nodes.append((f"glued@gh{gmin-1}", piece_n.h_dim(gmin - 1)))
        return ExactSequenceReport(nodes, maps)

    pieces = {
        # absolute: vertical = everything (plain Q-moduli)
        "absolute": (model_glued.bulk, model_left.bulk, model_right.bulk),
        # partially reduced: verticals vanish on the outer boundary only;
        # all of the glued boundary is outer, so its piece is the glued M_symp
        "partially_reduced": (model_glued.msymp,
                              *map(_outer_piece, (model_left, model_right), gl.to_interface)),
    }
    out = {kind: build_sequence(*p) for kind, p in pieces.items()}
    out["pieces"] = pieces
    return out


def _outer_piece(model: ReducedModel, to_interface):
    """ker Q / Q(V) of a piece, with V the bulk fields that vanish on the
    outer (non-interface) part of its boundary: per ghost, the unit vectors
    of the bulk coordinates that the outer rows of pi do not read.  The
    outer rows are the boundary fields that to_interface does not read."""
    t = model.t
    outer = set(_unread(to_interface, GluingError("interface row is not a single face")))
    vert = {}
    for g, idx in model.bulk.index.items():
        if idx:
            rows = [row for row in model.bdry.index[g] if row in outer]
            cols = _unread(t.pi.submatrix(rows, idx),
                           GluingError("outer restriction row is not a single face"))
            vert[g] = _unit_columns(cols, len(idx))
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
    gl = Gluing(spec, ReducedModel(t), ReducedModel(t1), ReducedModel(t2))
    (res_l, eps), (res_r, eps_r) = gl.res
    s_sum = (res_l.transpose() * t1.S_mat * res_l).scale(eps) + \
        (res_r.transpose() * t2.S_mat * res_r).scale(eps_r)
    diff = t.S_mat - s_sum
    additive = (diff + diff.transpose()).is_zero()
    with shared_eliminations():
        ev = evolution_relation(gl.glued)
        gm = glue_moduli(gl)
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
