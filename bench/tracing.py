"""Outside-in tracing of quandlekit, installed inside a job's interpreter.

Every public function of the traced modules (and every function of the CLI
module) is replaced by a timing wrapper at every module-level binding that
holds it, so calls made through ``from ... import`` names and through module
globals are both seen.  Each wrapper keeps a call count and a self time:
its span minus the spans of the wrapped calls it made.  Spans are folded
into these totals as they close instead of being stored one by one, because
a sweep makes millions of calls.  A few functions also record what they
produced (colorings found, matrix sizes, ...).
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS = ("quandles", "linalg", "chains", "homology", "diagrams", "invariants", "cli")

# Helpers whose time belongs to the caller's span.
INLINE = {
    "linalg": {"shape_of", "identity", "zeros", "matmul", "mat_vec"},
}

# Called so often that timing them would swamp the run: counted only.
COUNT_ONLY = {"invariants.crossing_roles"}


def _nnz(rows):
    return sum(len(r) - list(r).count(0) for r in rows)


def _colorings(t, args, res):
    d, X = args[0], args[1]
    t.extra["colorings_out"] += len(res)
    t.pairs.add((X.table, d.crossings, d.loops))


def _snf(t, args, res):
    mat = args[0]
    size = len(mat) * (len(mat[0]) if mat else len(res.V))
    t.extra["snf_entries"] += size
    t.extra["snf_max_entries"] = max(t.extra["snf_max_entries"], size)
    t.extra["snf_nnz"] += _nnz(mat)


def _boundary(t, args, res):
    rows, cols = res.shape
    t.extra["boundary_entries"] += rows * cols
    t.extra["boundary_nnz"] += _nnz(res.matrix)


def _add(name, of):
    def observe(t, args, res):
        t.extra[name] += of(res)
    return observe


# What a call produced, recorded outside every span.
OBSERVERS = {
    "invariants.enumerate_colorings": _colorings,
    "invariants.check_lemma_4_1": _add("lemma_pairs", lambda r: r.pairs_checked),
    "invariants.check_lemma_4_2": _add("lemma_pairs", lambda r: r.pairs_checked),
    "invariants.theorem_sweep": _add("cells", lambda r: len(r.entries)),
    "homology.cocycle_basis": _add("cocycles_out", len),
    "linalg.smith_normal_form": _snf,
    "chains.boundary_matrix": _boundary,
    "diagrams.load_diagram": _add("crossings_in", lambda r: r.n_crossings),
    "quandles.enumerate_quandles": _add("tables_out", len),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.pairs = set()
        self._stack = [0.0]
        self._originals = {}

    # --- wrappers -------------------------------------------------------------

    def _timed(self, fn, key):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        observe = OBSERVERS.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                self_s[key] += dt - inner
                calls[key] += 1
            if observe:
                t1 = clock()
                observe(self, args, res)
                stack[-1] += clock() - t1
            return res

        return wrapper

    def _counted(self, fn, key):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the traced functions at every quandlekit binding."""
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "quandlekit"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["quandlekit." + layer]
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer != "cli" and name.startswith("_"):
                    continue
                if name in INLINE.get(layer, ()):
                    continue
                key = "%s.%s" % (layer, name)
                make = self._counted if key in COUNT_ONLY else self._timed
                wrappers[id(fn)] = make(fn, key)
                self._originals[id(fn)] = fn
        for mod in package:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and self._originals[id(value)] is value:
                    setattr(mod, name, wrappers[id(value)])
        self._check_bindings()

    def _check_bindings(self):
        """Fail when anything but a wrapper still holds a traced original.

        Module globals are patched above; this catches references kept
        elsewhere, such as dispatch tables or class attributes.
        """
        originals = self._originals
        missed = set()
        for obj in gc.get_objects():
            if obj is originals or isinstance(obj, (types.CellType, types.FrameType)):
                continue
            for ref in gc.get_referents(obj):
                if id(ref) in originals and originals[id(ref)] is ref:
                    missed.add("%s (held by a %s)" % (ref.__qualname__, type(obj).__name__))
        if missed:
            raise RuntimeError("unwrapped references: %s" % ", ".join(sorted(missed)))

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "pairs": len(self.pairs),
        }
