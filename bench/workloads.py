"""The four benchmark workloads: fixed operation lists built from a seed.

`make_workload(name, seed)` is the benchmark's set-up: it draws every
per-operation engine seed and every random word from `seed`, computes the
closed-form references, and returns the operations.  Each operation calls
the public library API once and returns the `Check`s its output must pass.

Every library function is reached through its module attribute
(`engine.correlate`, `form_calculus.alt`, ...), so that the tracer in
`tracer.py` sees each call however it was made.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from hodgecor import (derivations, engine, exact_algebra, form_calculus,
                      geometry, tree_calculus)

# acceptance tolerances, relative to |reference|
TOL = {"bw": 0.01, "li2": 0.01, "li3": 0.02, "li4": 0.05,
       "ek11": 0.05, "ek21": 0.08, "ek11_skew": 0.05}
# A Monte Carlo check fails only when it misses by more than both its
# tolerance and Z_FAIL standard errors.  The engine's stderr comes from as
# few as 8 batch means, so miss/stderr follows Student's t with 7 degrees of
# freedom, not a normal law: a plain 4-stderr rule fires for ~0.6% of seeds
# on an unbiased estimate.  8.47 is the t(7) quantile at the normal 4-sigma
# two-sided level (6.3e-5).
Z_FAIL = 8.47

P1_Z = 0.3 + 0.1j


@dataclass
class Check:
    """One verified output.  `ref` is set for closed-form anchors; `tol` for
    anchors and symmetry pairs (relative); exact checks carry no value."""
    name: str
    ok: bool
    value: complex | None = None
    stderr: float = 0.0
    ref: complex | None = None
    tol: float | None = None
    samples: int = 0
    rejected: int = 0

    def key(self):
        """Everything the check reports, for bit-identity comparisons."""
        return (self.name, self.ok, self.value, self.stderr, self.samples,
                self.rejected)


@dataclass
class Op:
    name: str
    run: Callable[[], list]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: Callable[[], object]
    inputs: dict       # everything drawn from the seed, by purpose


def _finite(res) -> bool:
    return math.isfinite(abs(res.value)) and math.isfinite(res.stderr)


def anchor(name: str, res, ref: complex, tol: float) -> Check:
    miss = abs(res.value - ref)
    ok = _finite(res) and (miss <= tol * abs(ref) or miss <= Z_FAIL * res.stderr)
    return Check(name, ok, res.value, res.stderr, ref, tol, res.samples,
                 res.rejected)


def pair(name: str, r1, r2, tol: float) -> Check:
    """r1 + r2 should vanish: a symmetry pair."""
    miss = abs(r1.value + r2.value)
    se = math.hypot(r1.stderr, r2.stderr)
    scale = 0.5 * (abs(r1.value) + abs(r2.value))
    ok = (_finite(r1) and _finite(r2)
          and (miss <= tol * scale or miss <= Z_FAIL * se))
    return Check(name, ok, r1.value + r2.value, se, None, tol,
                 r1.samples + r2.samples, r1.rejected + r2.rejected)


def finite(name: str, res) -> Check:
    return Check(name, _finite(res), res.value, res.stderr, None, None,
                 res.samples, res.rejected)


def exact(name: str, ok: bool) -> Check:
    return Check(name, bool(ok))


# ----------------------------------------------------------------------
# engine workloads
# ----------------------------------------------------------------------

def _p1_anchors(seed: int) -> Workload:
    rnd = random.Random(seed)
    P1 = geometry.RationalCurve()
    base = 2.0
    r = geometry.cross_ratio(base, 0.0, 1.0, P1_Z)
    bw_ref = -geometry.single_valued_polylog(2, r) / (2j * np.pi) ** 2
    ops, inputs = [], {}
    s = inputs["bw"] = rnd.randrange(1 << 31)
    ops.append(Op("bw", lambda: [anchor("bw", engine.multiple_green(
        P1, geometry.GreenSpec.delta(base), [0.0, 1.0, P1_Z],
        samples=1 << 17, seed=s), bw_ref, TOL["bw"])]))
    for n, log2n in ((2, 16), (3, 18), (4, 20)):
        name = f"li{n}"
        ref = engine.levin_reference(n, P1_Z)
        s = inputs[name] = rnd.randrange(1 << 31)
        ops.append(Op(name, lambda n=n, log2n=log2n, name=name, ref=ref, s=s: [
            anchor(name, engine.cyclic_polylog_series(
                [1.0, P1_Z], [0, n - 1], samples=1 << log2n, seed=s),
                ref, TOL[name])]))
    return Workload("p1-anchors", seed, ops, lambda: engine.cyclic_polylog_series(
        [1.0, P1_Z], [0, 1], samples=1 << 12, seed=seed), inputs)


def _table_op(name, a_points, max_k, max_total, seed, anchors):
    """One `cyclic_polylog_table`: every entry must be finite; the (0, k)
    caterpillar entries named in `anchors` must match Levin's closed form."""
    def run():
        tab = engine.cyclic_polylog_table(a_points, max_k=max_k,
                                          max_total=max_total,
                                          samples=1 << 12, seed=seed)
        out = []
        for ks, res in tab.items():
            label = f"{name}{''.join(map(str, ks))}"
            if ks in anchors:
                tname, ref = anchors[ks]
                out.append(anchor(label, res, ref, TOL[tname]))
            else:
                out.append(finite(label, res))
        return out
    return Op(name, run)


def _p1_table(seed: int) -> Workload:
    rnd = random.Random(seed)
    z = P1_Z
    levin = {(0, n - 1): (f"li{n}", engine.levin_reference(n, z))
             for n in (2, 3)}
    inputs = {"t2_": rnd.randrange(1 << 31), "t3_": rnd.randrange(1 << 31)}
    ops = [
        _table_op("t2_", [1.0, z], 2, 4, inputs["t2_"], levin),
        _table_op("t3_", [1.0, z, -0.4 + 0.5j], 1, 3, inputs["t3_"], {}),
    ]
    return Workload("p1-table", seed, ops, lambda: engine.cyclic_polylog_series(
        [1.0, z], [0, 1], samples=1 << 12, seed=seed), inputs)


def _elliptic_ek(seed: int) -> Workload:
    rnd = random.Random(seed)
    square = geometry.EllipticCurve(1j)
    skew = geometry.EllipticCurve(0.3 + 1.1j)
    w11 = engine.symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])
    w21 = engine.symmetric_form_word(["o", "a"], [(0, 0), (2, 1)])
    a_half, a_gen = (1 + 1j) / 2, 0.31 + 0.17j
    cases = [  # name, curve, word, a, (p, q), log2 samples
        ("ek11", square, w11, a_half, (1, 1), 17),
        ("ek21", square, w21, a_gen, (2, 1), 15),
        ("ek11_skew", skew, w11, a_gen, (1, 1), 16),
    ]
    ops, inputs = [], {}
    for name, curve, w, a, (p, q), log2n in cases:
        ref = geometry.ek_correlator_value(curve, p, q, a, radius=200)
        s = inputs[name] = rnd.randrange(1 << 31)
        ops.append(Op(name, lambda name=name, curve=curve, w=w, a=a, ref=ref,
                      log2n=log2n, s=s: [anchor(name, engine.elliptic_correlator(
                          curve, w, {"o": 0.0, "a": a},
                          samples=1 << log2n, seed=s), ref, TOL[name])]))

    pts = {"a": 0.21 + 0.33j, "b": 0.55 + 0.62j, "o": 0.0}
    point = exact_algebra.point
    w_oab = exact_algebra.CyclicElement.from_word([point("o"), point("a"), point("b")])
    w_oba = exact_algebra.CyclicElement.from_word([point("o"), point("b"), point("a")])
    s1, s2 = inputs["dihedral2"] = rnd.randrange(1 << 31), rnd.randrange(1 << 31)
    ops.append(Op("dihedral2", lambda: [pair(
        "dihedral2",
        engine.elliptic_correlator(square, w_oab, pts, samples=1 << 15, seed=s1),
        engine.elliptic_correlator(square, w_oba, pts, samples=1 << 15, seed=s2),
        0.05)]))
    return Workload("elliptic-ek", seed, ops, lambda: engine.elliptic_correlator(
        square, w11, {"o": 0.0, "a": a_half}, samples=1 << 12, seed=seed), inputs)


# ----------------------------------------------------------------------
# exact workload
# ----------------------------------------------------------------------

def _random_words(rnd, alphabet, lengths):
    return [[rnd.choice(alphabet) for _ in range(n)] for n in lengths]


def _exact_identities(seed: int) -> Workload:
    rnd = random.Random(seed)
    fc, tc, ea, dv = form_calculus, tree_calculus, exact_algebra, derivations
    ops = []

    # criterion 1: form identities (no randomness)
    for m in range(1, 5):
        ops.append(Op(f"d_omega_m{m}", lambda m=m: [
            exact(f"d_omega_m{m}", fc.d_omega_identity(m))]))

    def xi_eta():
        out = []
        for m in range(1, 5):
            xi, eta = fc.xi_eta(m)
            out.append(exact(f"xi_eta_m{m}", fc.dC(xi) == eta))
        return out
    ops.append(Op("xi_eta", xi_eta))

    def omega_star():
        out = []
        for n in range(1, 5):
            for alpha in range(n + 1):
                scaled = Fraction(n + 1) * fc.omega_star(alpha, n - alpha)
                out.append(exact(f"omega_star_{alpha}{n - alpha}",
                                 bool(scaled.terms) and all(
                                     abs(c) == 1 for c in scaled.terms.values())))
        return out
    ops.append(Op("omega_star", omega_star))

    # criterion 2: the tree complex on random words of fixed lengths
    basis = tc.CasimirBasis.symplectic(1)
    alphabet = [ea.point(s) for s in "xyz"] + [ell for ell, _, _ in basis.pairs]
    d2_words = _random_words(rnd, alphabet, [4, 5, 6] * 4)
    d2_picks = [rnd.randrange(1 << 30) for _ in d2_words]
    cj_words = _random_words(rnd, alphabet, [3, 4, 5] * 5)
    int_words = _random_words(rnd, alphabet, [3, 4, 5] * 3)

    def d_squared():
        out = []
        for i, (w, pick) in enumerate(zip(d2_words, d2_picks)):
            trees = tc.enumerate_trivalent_trees(ea.CyclicWord(w))
            v = tc.ForestVector.from_forest(trees[pick % len(trees)])
            out.append(exact(f"d2_{i}", not tc.differential(
                tc.differential(v, basis), basis)))
        return out
    ops.append(Op("d_squared", d_squared))

    def co_jacobi():
        return [exact(f"cojacobi_{i}", not tc.cobracket_squared(
                    ea.CyclicElement.from_word(w), basis))
                for i, w in enumerate(cj_words)]
    ops.append(Op("co_jacobi", co_jacobi))

    def intertwining():
        out = []
        for i, w in enumerate(int_words):
            cw = ea.CyclicElement.from_word(w)
            out.append(exact(f"intertwining_{i}",
                             tc.differential(tc.tree_sum_map(cw), basis)
                             == tc.tree_sum_ext(tc.cobracket(cw, basis))))
        return out
    ops.append(Op("intertwining", intertwining))

    # criterion 3: derivations on random cyclic elements
    spec = dv.AlphabetSpec(genus=1, s_star=("a", "b"))
    letters = spec.letters()

    def rand_cyc():
        acc = ea.CyclicElement.zero()
        for deg in (rnd.randint(2, 4), rnd.randint(2, 4)):
            acc = acc + ea.CyclicElement.from_word(
                [rnd.choice(letters) for _ in range(deg)], rnd.choice([1, -1, 2]))
        return acc
    id_elems = [rand_cyc() for _ in range(20)]
    x0_elems = [rand_cyc() for _ in range(20)]
    morph_pairs = [(rand_cyc(), rand_cyc()) for _ in range(20)]

    ops.append(Op("derivative_identity", lambda: [
        exact(f"deriv_id_{i}", ea.derivative_identity_check(F) == ea.AlgebraElement.zero())
        for i, F in enumerate(id_elems)]))
    ops.append(Op("kappa_x0", lambda: [
        exact(f"kappa_x0_{i}", dv.kappa(F, spec)(spec.x0()) == ea.AlgebraElement.zero())
        for i, F in enumerate(x0_elems)]))
    ops.append(Op("kappa_morphism", lambda: [
        exact(f"morphism_{i}", dv.morphism_check(F, G, spec))
        for i, (F, G) in enumerate(morph_pairs)]))

    # criterion 4: the dilogarithm coproduct
    def dilog():
        args = [(Fraction(1, 3), 1), (Fraction(-1, 2), 1)]
        cop = ea.dilog_coproduct(args)
        target = ea.TensorSquareQ.pair(Fraction(3, 2), Fraction(3, 2))
        motivic = ea.dilog_coproduct(
            args, [(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))])
        return [exact("dilog_5term", cop.mod_two_torsion() == target.mod_two_torsion()),
                exact("dilog_motivic", motivic.is_zero_mod_two_torsion())]
    ops.append(Op("dilog_coproduct", dilog))
    inputs = {"d_squared": (d2_words, d2_picks), "co_jacobi": cj_words,
              "intertwining": int_words, "derivative_identity": id_elems,
              "kappa_x0": x0_elems, "kappa_morphism": morph_pairs}
    return Workload("exact-identities", seed, ops, lambda: fc.d_omega_identity(2),
                    inputs)


BUILDERS = {
    "p1-anchors": _p1_anchors,
    "p1-table": _p1_table,
    "elliptic-ek": _elliptic_ek,
    "exact-identities": _exact_identities,
}


def make_workload(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
