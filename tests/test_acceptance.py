"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact criteria run in full; numeric criteria use fixed seeds and the stated
tolerances.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from hodgecor.derivations import AlphabetSpec, kappa, morphism_check
from hodgecor.engine import (
    CorrelatorRequest, correlate, cyclic_polylog_series, elliptic_correlator,
    levin_reference, multiple_green, symmetric_form_word,
)
from hodgecor.exact_algebra import (
    AlgebraElement, CyclicElement, CyclicWord, TensorSquareQ,
    derivative_identity_check, dilog_coproduct, point,
)
from hodgecor.form_calculus import d_omega_identity, dC, omega_star, xi_eta
from hodgecor.geometry import (
    INFINITY, EllipticCurve, GreenSpec, RationalCurve, cross_ratio,
    ek_correlator_value, single_valued_polylog,
)
from hodgecor.tree_calculus import (
    CasimirBasis, ForestVector, OrientedForest, cobracket, cobracket_squared,
    differential, enumerate_trivalent_trees, tree_sum_ext, tree_sum_map,
)

P1 = RationalCurve()
DINF = GreenSpec.delta(INFINITY)


class ShiftedLine(RationalCurve):
    """P^1 with every Green function shifted by the constant 1."""

    @staticmethod
    def green(spec, x, y, need_dx=False, need_dy=False):
        g, dx, dy = RationalCurve.green(spec, x, y, need_dx, need_dy)
        return g + 1.0, dx, dy


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_form_identities():
    t0 = time.time()
    ok_d = all(d_omega_identity(m) for m in range(1, 5))
    ok_xi = True
    for m in range(1, 5):
        xi, eta = xi_eta(m)
        ok_xi &= dC(xi) == eta
    ok_star = True
    for n in range(1, 5):
        for alpha in range(n + 1):
            scaled = Fraction(n + 1) * omega_star(alpha, n - alpha)
            ok_star &= bool(scaled.terms) and all(abs(c) == 1
                                                  for c in scaled.terms.values())
    dt = time.time() - t0
    report("1 form identities",
           ok_d and ok_xi and ok_star and dt < 10,
           f"d-omega m<=4: {ok_d}, dC xi=eta m<=4: {ok_xi}, "
           f"omega* +-1 coeffs: {ok_star}, {dt:.1f}s")


def test_criterion_2_tree_complex():
    t0 = time.time()
    basis = CasimirBasis.symplectic(1)
    s_letters = [point(s) for s in "xyz"]
    alphabet = s_letters + [ell for ell, _, _ in basis.pairs]
    rnd = random.Random(2024)

    ok_d2 = True
    # exhaustive over short words, sampled generating family beyond
    short = []
    for l1 in alphabet:
        for l2 in alphabet:
            short.append([l1, l2])
            for l3 in alphabet:
                short.append([l1, l2, l3])
    for w in short[::7]:
        for forest in enumerate_trivalent_trees(CyclicWord(w)):
            v = ForestVector.from_forest(forest)
            if v.terms and differential(differential(v, basis), basis):
                ok_d2 = False
    for _ in range(40):
        w = [rnd.choice(alphabet) for _ in range(rnd.randint(4, 6))]
        trees = enumerate_trivalent_trees(CyclicWord(w))
        v = ForestVector.from_forest(rnd.choice(trees))
        if v.terms and differential(differential(v, basis), basis):
            ok_d2 = False
    for _ in range(8):
        w1 = [rnd.choice(alphabet) for _ in range(rnd.randint(2, 4))]
        w2 = [rnd.choice(alphabet) for _ in range(rnd.randint(2, 3))]
        f1 = rnd.choice(enumerate_trivalent_trees(CyclicWord(w1)))
        f2 = rnd.choice(enumerate_trivalent_trees(CyclicWord(w2)))
        f = OrientedForest(list(f1.trees) + list(f2.trees), f1.sign * f2.sign)
        v = ForestVector.from_forest(f)
        if v.terms and differential(differential(v, basis), basis):
            ok_d2 = False
    for _ in range(10):
        w = [rnd.choice(alphabet) for _ in range(rnd.randint(3, 6))]
        dv = differential(tree_sum_map(CyclicElement.from_word(w)), basis)
        for k in sorted(dv.terms, key=str)[:2]:
            if differential(differential(ForestVector({k: 1}), basis), basis):
                ok_d2 = False

    ok_dd = True
    for _ in range(30):
        w = CyclicElement.from_word(
            [rnd.choice(alphabet) for _ in range(rnd.randint(2, 6))])
        if cobracket_squared(w, basis):
            ok_dd = False

    ok_int = True
    for _ in range(25):
        w = CyclicElement.from_word(
            [rnd.choice(alphabet) for _ in range(rnd.randint(2, 5))])
        if differential(tree_sum_map(w), basis) != tree_sum_ext(cobracket(w, basis)):
            ok_int = False
    dt = time.time() - t0
    report("2 tree complex",
           ok_d2 and ok_dd and ok_int and dt < 120,
           f"d^2=0: {ok_d2}, delta^2=0: {ok_dd}, intertwining: {ok_int}, {dt:.1f}s")


def test_criterion_3_derivations():
    t0 = time.time()
    spec = AlphabetSpec(genus=1, s_star=("a", "b"))
    letters = spec.letters()
    rnd = random.Random(77)

    def rand_cyc():
        acc = CyclicElement.zero()
        for _ in range(2):
            deg = rnd.randint(2, 4)
            acc = acc + CyclicElement.from_word(
                [rnd.choice(letters) for _ in range(deg)], rnd.choice([1, -1, 2]))
        return acc

    ok_id = all(
        derivative_identity_check(rand_cyc()) == AlgebraElement.zero()
        for _ in range(50))
    ok_x0 = all(kappa(rand_cyc(), spec)(spec.x0()) == AlgebraElement.zero()
                for _ in range(50))
    ok_m = all(morphism_check(rand_cyc(), rand_cyc(), spec) for _ in range(50))
    dt = time.time() - t0
    report("3 derivations",
           ok_id and ok_x0 and ok_m and dt < 120,
           f"sum[dF,x]=0: {ok_id}, kappa(X0)=0: {ok_x0}, "
           f"morphism 50 pairs: {ok_m}, {dt:.1f}s")


def test_criterion_4_dilog_coproduct():
    t0 = time.time()
    cop = dilog_coproduct([(Fraction(1, 3), 1), (Fraction(-1, 2), 1)])
    target = TensorSquareQ.pair(Fraction(3, 2), Fraction(3, 2))
    ok1 = cop.mod_two_torsion() == target.mod_two_torsion()
    motivic = dilog_coproduct(
        [(Fraction(1, 3), 1), (Fraction(-1, 2), 1)],
        [(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))])
    ok2 = motivic.is_zero_mod_two_torsion()
    dt = time.time() - t0
    report("4 dilog coproduct", ok1 and ok2 and dt < 1,
           f"5teq1 reproduced: {ok1}, motivic side vanishes: {ok2}, {dt:.2f}s")


def test_criterion_5_bloch_wigner():
    cases = [
        (INFINITY, 0.0, 1.0, 0.3 + 0.1j),
        (INFINITY, 0.0, 1.0, -0.35 + 0.25j),
        (INFINITY, 0.0, 1.0, 0.55 - 0.3j),
        (2.0, 0.0, 1.0, 0.3 + 0.1j),
        (1.4 + 1.2j, 0.0, 1.0, -0.25 + 0.45j),
    ]
    lines = []
    ok_all = True
    for i, (a, a0, a1, a2) in enumerate(cases):
        r = cross_ratio(a, a0, a1, a2)
        assert abs(r) < 1
        t0 = time.time()
        res = multiple_green(P1, GreenSpec.delta(a), [a0, a1, a2],
                             samples=1 << 17, seed=500 + i)
        target = -single_valued_polylog(2, r) / (2j * np.pi) ** 2
        tol = max(3 * res.stderr, 0.01 * abs(res.value))
        dev = abs(res.value - target)
        ok = dev < tol and time.time() - t0 < 60
        ok_all &= ok
        lines.append(f"r={r:.3f} dev={dev:.2e} tol={tol:.2e}")
    report("5 Bloch-Wigner", ok_all, "; ".join(lines))


def test_criterion_6_classical_polylogs():
    t0 = time.time()
    ok_all = True
    lines = []
    pts2 = [0.3 + 0.1j, -0.35 + 0.2j, 0.1 + 0.55j, 0.45 - 0.2j, -0.2 - 0.6j]
    for i, z in enumerate(pts2):
        res = cyclic_polylog_series([1.0, z], [0, 1], samples=1 << 16,
                                    seed=600 + i)
        t = levin_reference(2, z)
        ok_all &= abs(res.value - t) < 0.01 * abs(t)
        lines.append(f"n=2 z={z:.2f} rel={abs(res.value - t)/abs(t):.3f}")
    for i, z in enumerate([0.3 + 0.1j, -0.35 + 0.2j, 0.1 + 0.55j]):
        res = cyclic_polylog_series([1.0, z], [0, 2], samples=1 << 18,
                                    seed=630 + i)
        t = levin_reference(3, z)
        ok_all &= abs(res.value - t) < 0.02 * abs(t)
        lines.append(f"n=3 z={z:.2f} rel={abs(res.value - t)/abs(t):.3f}")
    z = 0.3 + 0.1j
    res = cyclic_polylog_series([1.0, z], [0, 3], samples=1 << 22, seed=640)
    t = levin_reference(4, z)
    ok_all &= abs(res.value - t) < 0.05 * abs(t)
    lines.append(f"n=4 z={z:.2f} rel={abs(res.value - t)/abs(t):.3f}")
    dt = time.time() - t0
    ok_all &= dt < 600
    report("6 classical polylogs", ok_all, "; ".join(lines) + f"; {dt:.0f}s")


def test_criterion_7_shuffle_dihedral():
    t0 = time.time()
    pts = [0.0, 1.0, 0.35 + 0.2j]
    r1 = multiple_green(P1, DINF, pts, samples=1 << 17, seed=700)
    r2 = multiple_green(P1, DINF, [pts[0], pts[2], pts[1]],
                        samples=1 << 17, seed=701)
    shuffle_dev = abs(r1.value + r2.value)
    shuffle_tol = 3 * math.hypot(r1.stderr, r2.stderr)
    ok_sh = shuffle_dev < shuffle_tol

    # depth 2 reversal flips the sign; depth 3 reversal preserves the value
    ok_d2 = ok_sh  # same identity at depth 2
    pts3 = [0.0, 1.0, 0.35 + 0.2j, 2.2 + 0.4j]
    r3 = multiple_green(P1, DINF, pts3, samples=1 << 17, seed=702)
    r4 = multiple_green(P1, DINF, pts3[::-1], samples=1 << 17, seed=703)
    rev_dev = abs(r3.value - r4.value)
    rev_tol = 3 * math.hypot(r3.stderr, r4.stderr)
    ok_d3 = rev_dev < rev_tol
    dt = time.time() - t0
    report("7 shuffle & dihedral", ok_sh and ok_d2 and ok_d3 and dt < 300,
           f"shuffle dev={shuffle_dev:.2e} tol={shuffle_tol:.2e}; "
           f"reversal dev={rev_dev:.2e} tol={rev_tol:.2e}; {dt:.0f}s")


def test_criterion_8_eisenstein_kronecker():
    t0 = time.time()
    curve = EllipticCurve(1j)
    a = (1 + 1j) / 2
    w = symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])
    res = elliptic_correlator(curve, w, {"o": 0.0, "a": a},
                              samples=1 << 16, seed=800)
    target = ek_correlator_value(curve, 1, 1, a, radius=200)
    rel = abs(res.value - target) / abs(target)
    dt = time.time() - t0
    report("8 Eisenstein-Kronecker depth 1", rel < 0.05 and dt < 900,
           f"engine={res.value:.5g} lattice={target:.5g} rel={rel:.3f} {dt:.0f}s")


def test_criterion_9_elliptic_green():
    t0 = time.time()
    curve = EllipticCurve(1j)
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(100):
        z = rng.random() + 1j * rng.random()
        worst = max(worst, abs(curve.green_function(z) - curve.green_ewald(z)))
    n = 600
    u, v = np.meshgrid((np.arange(n) + 0.5) / n, (np.arange(n) + 0.5) / n)
    mean = abs(curve.green_function(u + 1j * v).mean())
    dt = time.time() - t0
    report("9 elliptic Green cross-validation",
           worst < 1e-6 and mean < 1e-4 and dt < 60,
           f"max evaluator diff={worst:.2e}, |mean G|={mean:.2e}, {dt:.0f}s")


def test_criterion_10_constant_independence():
    t0 = time.time()
    labels = {"a": 0.0, "b": 1.0, "c": 0.4 + 0.3j, "d": -0.8 + 0.6j}
    w = (CyclicElement.from_word([point("a"), point("c"), point("d")])
         - CyclicElement.from_word([point("b"), point("c"), point("d")]))
    kw = dict(green=DINF, word=w, points=labels, samples=1 << 17)
    r0 = correlate(CorrelatorRequest(P1, seed=1000, **kw))
    r1 = correlate(CorrelatorRequest(ShiftedLine(), seed=1001, **kw))
    dev = abs(r0.value - r1.value)
    tol = 3 * math.hypot(r0.stderr, r1.stderr)
    dt = time.time() - t0
    report("10 constant independence", dev < tol and dt < 120,
           f"shift dev={dev:.2e} tol={tol:.2e}, {dt:.0f}s")
