"""Spans around the public entry points of each bvbfv module.

The wrappers are installed from outside the program: each entry point is
replaced in every `bvbfv.*` namespace that bound it (the modules import
each other with `from .linalg import ...`, so patching the defining module
alone misses calls), and methods are replaced on their class.  Spans are
kept in memory as [name, start, end, parent, op, raised, outermost] and
written out when the benchmark ends.
"""

import functools
import json
import sys
import time

# (module, attribute path) of every wrapped entry point.  The span name is
# "<module>.<path>"; "__init__" is dropped, so a class name counts
# constructions.
ENTRY_POINTS = [
    ("cli", "main"),
    ("cli", "emit_report"),
    ("simplicial", "load_complex"),
    ("theories", "theory_from_config"),
    ("theories", "verify_cme"),
    ("theories", "check_ghost_grading"),
    ("theories", "ghost_zero_slice"),
    ("symbolic", "target_from_dict"),
    ("symbolic", "TargetSpec.summary"),
    ("complexes", "verify_exactness"),
    ("complexes", "CochainComplex.cohomology"),
    ("moduli", "ReducedModel.__init__"),
    ("moduli", "el_space"),
    ("moduli", "q_reduce"),
    ("moduli", "symp_moduli"),
    ("moduli", "tangent_les"),
    ("moduli", "lefschetz"),
    ("moduli", "evolution_relation"),
    ("moduli", "vacua"),
    ("moduli", "regularity"),
    ("moduli", "ed_formula_check"),
    ("moduli", "_GradedPiece.class_coords"),
    ("gluing", "glue"),
    ("gluing", "fiber_product_check"),
    ("gluing", "glue_moduli"),
    ("gluing", "mayer_vietoris"),
    ("linalg", "_echelon"),
    ("linalg", "kernel_basis"),
    ("linalg", "image_basis"),
    ("linalg", "solve"),
    ("linalg", "quotient"),
    ("linalg", "_left_inverse"),
    ("linalg", "column_span"),
    ("linalg", "Subspace.intersect"),
]


def span_name(module, path):
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the
    wrappers in and out so untraced passes run the original code."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._depth = {}
        self._patches = []
        # _echelon work: cells = rows x columns eliminated; a call repeats
        # when the same input rows were already eliminated within the op.
        self.echelon_cells = 0
        self.echelon_repeats = 0
        self._echelon_seen = set()

    def start_op(self, op):
        self.op = op
        self._echelon_seen = set()

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.op, False, outer]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                depth[name] -= 1

        return wrapper

    def _echelon_probe(self, fn):
        def echelon(rows, col_order=None):
            ncols = 0
            for r in rows:
                if r:
                    ncols = max(ncols, max(r) + 1)
            ncols = len(col_order) if col_order is not None else ncols
            self.echelon_cells += len(rows) * ncols
            key = (tuple(tuple(sorted(r.items())) for r in rows),
                   None if col_order is None else tuple(col_order))
            if key in self._echelon_seen:
                self.echelon_repeats += 1
            else:
                self._echelon_seen.add(key)
            return fn(rows, col_order)
        return echelon

    def install(self):
        mods = {k: m for k, m in sys.modules.items() if k.startswith("bvbfv.")}
        for module, path in ENTRY_POINTS:
            name = span_name(module, path)
            owner = mods["bvbfv." + module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, path)
            fn = orig
            if name == "linalg._echelon":
                fn = self._echelon_probe(orig)
            wrapped = self._wrap(name, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, raised, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "raised": raised}) + "\n")


def layer_totals(spans, ops):
    """Per span name: calls, inclusive seconds (outermost spans only, so
    recursion is not counted twice) and self seconds, over spans whose op
    is in `ops`."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    out = {}
    for i, (name, t0, t1, _, op, _, outer) in enumerate(spans):
        if op not in ops:
            continue
        calls, s, self_s = out.get(name, (0, 0.0, 0.0))
        dur = t1 - t0
        out[name] = (calls + 1, s + (dur if outer else 0.0), self_s + dur - child[i])
    return out
