"""Outside-in tracing of the library's layers, for the traced benchmark run.

`Tracer.install()` replaces each traced function by a wrapper under every
name through which a caller can look it up: the attribute of each
`hodgecor` module that holds the function (so `engine.compile_tree` is
wrapped where `engine.correlate` finds it), or the class attribute for
methods.  Timed wrappers record a span (name, start, end, parent) with
`time.perf_counter`; counting wrappers only bump a counter.  Spans stay in
memory; `layer_metrics()` turns them into per-layer self times at the end.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np


def _rows(args, result):
    return {"rows": args[2].shape[0]}


def _points(args, result):
    return {"points": int(np.size(args[1]))}


def _compiled(args, result):
    return ({"pruned": 1} if result is None
            else {"terms": len(result.terms)})


# span name -> (module, attribute path, extra counts from (args, result))
TIMED = {
    "engine.correlate": ("hodgecor.engine", "correlate", None),
    "engine.compile_tree": ("hodgecor.engine", "compile_tree", _compiled),
    "engine.integrand": ("hodgecor.engine", "integrand", _rows),
    "tree_calculus.enumerate_trivalent_trees":
        ("hodgecor.tree_calculus", "enumerate_trivalent_trees", None),
    "geometry.log_abs_theta1":
        ("hodgecor.geometry", "EllipticCurve.log_abs_theta1", _points),
    "geometry.theta1_log_derivative":
        ("hodgecor.geometry", "EllipticCurve.theta1_log_derivative", _points),
    "geometry.green_function":
        ("hodgecor.geometry", "EllipticCurve.green_function", None),
    "geometry.green_dz": ("hodgecor.geometry", "EllipticCurve.green_dz", None),
    "geometry.ek_correlator_value":
        ("hodgecor.geometry", "ek_correlator_value", None),
    "form_calculus.alt": ("hodgecor.form_calculus", "alt", None),
    "form_calculus.dC": ("hodgecor.form_calculus", "dC", None),
    "form_calculus.d_omega_identity":
        ("hodgecor.form_calculus", "d_omega_identity", None),
    "form_calculus.xi_eta": ("hodgecor.form_calculus", "xi_eta", None),
    "form_calculus.omega_star": ("hodgecor.form_calculus", "omega_star", None),
    "tree_calculus.differential": ("hodgecor.tree_calculus", "differential", None),
    "tree_calculus.cobracket": ("hodgecor.tree_calculus", "cobracket", None),
    "tree_calculus.cobracket_squared":
        ("hodgecor.tree_calculus", "cobracket_squared", None),
    "tree_calculus.tree_sum_map": ("hodgecor.tree_calculus", "tree_sum_map", None),
    "tree_calculus.tree_sum_ext": ("hodgecor.tree_calculus", "tree_sum_ext", None),
    "derivations.kappa": ("hodgecor.derivations", "kappa", None),
    "derivations.morphism_check": ("hodgecor.derivations", "morphism_check", None),
    "exact_algebra.derivative_identity_check":
        ("hodgecor.exact_algebra", "derivative_identity_check", None),
    "exact_algebra.dilog_coproduct":
        ("hodgecor.exact_algebra", "dilog_coproduct", None),
}

# counter name -> (module, attribute path); constructors count allocations
COUNTED = {
    "geometry.log_abs_eta.calls": ("hodgecor.geometry", "EllipticCurve.log_abs_eta"),
    "tree_calculus.PlaneTree.from_raw.calls":
        ("hodgecor.tree_calculus", "PlaneTree.from_raw"),
    "tree_calculus.ForestVector.allocs":
        ("hodgecor.tree_calculus", "ForestVector.__init__"),
    "form_calculus.FormPolynomial.allocs":
        ("hodgecor.form_calculus", "FormPolynomial.__init__"),
    "exact_algebra.CyclicElement.allocs":
        ("hodgecor.exact_algebra", "CyclicElement.__init__"),
    "exact_algebra.AlgebraElement.allocs":
        ("hodgecor.exact_algebra", "AlgebraElement.__init__"),
}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._open = []      # indices of spans still running
        self._undo = []      # (owner, attribute, original raw attribute)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name, fn, extra):
        spans, counts, open_ = self.spans, self.counts, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                open_.pop()
                spans[idx] = (name, t0, t1, parent)
            counts[name + ".calls"] += 1
            if extra is not None:
                for key, n in extra(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result
        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------
    def _patch(self, module, path, make):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[module], owner_name)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(fn)
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod)
                    else new)
            self._undo.append((owner, attr, raw))
            return
        fn = getattr(sys.modules[module], attr)
        new = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "hodgecor" or mod_name.startswith("hodgecor.")) \
                    and getattr(mod, attr, None) is fn:
                setattr(mod, attr, new)
                self._undo.append((mod, attr, fn))

    def install(self):
        for name, (module, path, extra) in TIMED.items():
            self._patch(module, path, lambda fn, n=name, e=extra: self._timed(n, fn, e))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, n=name: self._counting(n, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict:
        """Span time minus the time covered by its child spans, per name."""
        child = [0.0] * len(self.spans)
        for (_, t0, t1, parent) in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out
