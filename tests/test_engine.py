import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from hodgecor.engine import (
    CorrelatorRequest, _eval_tree_mc, _Mixture, _singular_mask, _spanning,
    compile_tree, correlate, cyclic_polylog_series, elliptic_correlator,
    integrand, levin_reference, multiple_green, symmetric_form_word,
)
from hodgecor.exact_algebra import (
    CyclicElement, antihol_form, hol_form, perm_parity, point,
)
from hodgecor.form_calculus import omega_terms
from hodgecor.geometry import (
    INFINITY, EllipticCurve, GreenSpec, RationalCurve, cross_ratio,
    ek_correlator_value, green, is_infinity, single_valued_polylog,
)
from hodgecor.tree_calculus import enumerate_trivalent_trees

P1 = RationalCurve()
DINF = GreenSpec.delta(INFINITY)
Z = 0.3 + 0.1j


def bw_target(a, a0, a1, a2):
    r = cross_ratio(a, a0, a1, a2)
    return -single_valued_polylog(2, r) / (2j * np.pi) ** 2


class TestBlochWigner:
    def test_base_infinity(self):
        res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 16, seed=1)
        t = bw_target(INFINITY, 0.0, 1.0, Z)
        assert abs(res.value - t) < max(3 * res.stderr, 0.01 * abs(t))

    def test_finite_base(self):
        res = multiple_green(P1, GreenSpec.delta(2.0), [0.0, 1.0, Z],
                             samples=1 << 17, seed=2)
        t = bw_target(2.0, 0.0, 1.0, Z)
        assert abs(res.value - t) < max(3 * res.stderr, 0.015 * abs(t))

    def test_finite_base_decoration_at_infinity(self):
        # G_a(x, oo) = -log|x - a| on the edge to the point at infinity
        a = 0.5 + 0.7j
        res = multiple_green(P1, GreenSpec.delta(a), [0.0, INFINITY, Z],
                             samples=1 << 17, seed=1)
        t = bw_target(a, 0.0, INFINITY, Z)
        assert abs(res.value - t) < max(3 * res.stderr, 0.015 * abs(t))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            multiple_green(P1, DINF, [0.0, 0.0, 1.0])


class TestPolylogs:
    def test_weight_two(self):
        res = cyclic_polylog_series([1.0, Z], [0, 1], samples=1 << 16, seed=3)
        t = levin_reference(2, Z)
        assert abs(res.value - t) < max(3 * res.stderr, 0.01 * abs(t))

    def test_weight_three(self):
        res = cyclic_polylog_series([1.0, Z], [0, 2], samples=1 << 17, seed=4)
        t = levin_reference(3, Z)
        assert abs(res.value - t) < max(3 * res.stderr, 0.02 * abs(t))

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            cyclic_polylog_series([0.0, Z], [0, 1])

    def test_depth_one_flip_reduction(self):
        # moving a zero-leg from one arc to the other flips the tree
        # orientation once, so the word with zeros split (k0, k1) equals
        # (-1)^{k0} C(k0+k1, k0) times the single-arc caterpillar of the same
        # total weight k0+k1+1
        a0, a1 = 1.0, Z
        res = cyclic_polylog_series([a0, a1], [1, 1], samples=1 << 17, seed=5)
        t = -2 * levin_reference(3, a1 / a0)
        assert abs(res.value - t) < max(3 * res.stderr, 0.02 * abs(t))
        res02 = cyclic_polylog_series([a0, a1], [0, 2], samples=1 << 16, seed=6)
        t02 = levin_reference(3, a1 / a0)
        assert abs(res02.value - t02) < max(3 * res02.stderr, 0.02 * abs(t02))


class TestEngineContracts:
    def test_seed_determinism(self):
        r1 = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 14, seed=9)
        r2 = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 14, seed=9)
        assert r1.value == r2.value and r1.stderr == r2.stderr
        r3 = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 14, seed=10)
        assert r3.value != r1.value

    def test_qmc_runs_and_is_deterministic(self):
        kw = dict(samples=1 << 14, seed=9, scheme="qmc")
        r1 = multiple_green(P1, DINF, [0.0, 1.0, Z], **kw)
        r2 = multiple_green(P1, DINF, [0.0, 1.0, Z], **kw)
        assert r1.value == r2.value
        t = bw_target(INFINITY, 0.0, 1.0, Z)
        assert abs(r1.value - t) < max(3 * r1.stderr, 0.05 * abs(t))

    def test_qmc_odd_batch_raises_no_balance_warning(self):
        word = CyclicElement.from_word([point("a"), point("b"), point("c")])
        req = CorrelatorRequest(P1, DINF, word, {"a": 0.0, "b": 1.0, "c": Z},
                                samples=12000, seed=9, scheme="qmc")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = correlate(req)
        assert res.samples == 8 * 2048

    def test_linearity(self):
        labels = {"a": 0.0, "b": 1.0, "c": Z}
        w = CyclicElement.from_word([point("a"), point("b"), point("c")])
        req1 = CorrelatorRequest(curve=P1, green=DINF, word=w, points=labels,
                                 samples=1 << 14, seed=7)
        req2 = CorrelatorRequest(curve=P1, green=DINF, word=3 * w, points=labels,
                                 samples=1 << 14, seed=7)
        r1, r2 = correlate(req1), correlate(req2)
        assert np.isclose(r2.value, 3 * r1.value, rtol=0, atol=1e-14)

    def test_result_serialization(self):
        res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 14, seed=1)
        d = res.as_dict()
        assert set(d) >= {"value", "stderr", "samples", "per_tree", "metadata"}
        assert d["value"]["re"] == res.value.real

    def test_single_edge_word(self):
        # two-letter words need no integration: (2 pi i)^{-1} G(a0, a1)
        res = multiple_green(P1, DINF, [0.0, 2.0], samples=1 << 12, seed=1)
        assert res.stderr == 0
        assert np.isclose(res.value, math.log(2.0) / (2j * np.pi))


class TestShuffleDihedral:
    def test_depth_two_shuffle(self):
        pts = [0.0, 1.0, 0.35 + 0.2j]
        r1 = multiple_green(P1, DINF, pts, samples=1 << 16, seed=11)
        r2 = multiple_green(P1, DINF, [pts[0], pts[2], pts[1]],
                            samples=1 << 16, seed=12)
        s = r1.value + r2.value
        assert abs(s) < 3 * math.hypot(r1.stderr, r2.stderr) + 1e-12

    def test_depth_three_reversal(self):
        pts = [0.0, 1.0, 0.35 + 0.2j, 2.2 + 0.4j]
        r1 = multiple_green(P1, DINF, pts, samples=1 << 16, seed=13)
        r2 = multiple_green(P1, DINF, pts[::-1], samples=1 << 16, seed=14)
        # (-1)^{m+1} with m = 3: reversal preserves the value
        assert abs(r1.value - r2.value) < 3 * math.hypot(r1.stderr, r2.stderr)


class ShiftedLine(RationalCurve):
    """P^1 with every Green function shifted by the constant 1."""

    @staticmethod
    def green(spec, x, y, need_dx=False, need_dy=False):
        g, dx, dy = RationalCurve.green(spec, x, y, need_dx, need_dy)
        return g + 1.0, dx, dy


class TestConstantIndependence:
    def test_degree_zero_divisor(self):
        labels = {"a": 0.0, "b": 1.0, "c": 0.4 + 0.3j, "d": -0.8 + 0.6j}
        w = (CyclicElement.from_word([point("a"), point("c"), point("d")])
             - CyclicElement.from_word([point("b"), point("c"), point("d")]))
        kw = dict(green=DINF, word=w, points=labels, samples=1 << 16)
        r0 = correlate(CorrelatorRequest(P1, seed=21, **kw))
        r1 = correlate(CorrelatorRequest(ShiftedLine(), seed=22, **kw))
        assert abs(r0.value - r1.value) < 3 * math.hypot(r0.stderr, r1.stderr)


class TestElliptic:
    def test_w11_matches_lattice_sum(self):
        curve = EllipticCurve(1j)
        a = (1 + 1j) / 2
        w = symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])
        assert len(w.terms) == 2
        res = elliptic_correlator(curve, w, {"o": 0.0, "a": a},
                                  samples=1 << 15, seed=15)
        t = ek_correlator_value(curve, 1, 1, a)
        assert abs(res.value - t) < max(3 * res.stderr, 0.05 * abs(t))

    def test_w21_matches_lattice_sum(self):
        curve = EllipticCurve(1j)
        a = 0.31 + 0.17j
        w = symmetric_form_word(["o", "a"], [(0, 0), (2, 1)])
        assert len(w.terms) == 3
        res = elliptic_correlator(curve, w, {"o": 0.0, "a": a},
                                  samples=1 << 15, seed=16)
        t = ek_correlator_value(curve, 2, 1, a)
        assert abs(res.value - t) < max(3 * res.stderr, 0.08 * abs(t))

    def test_depth_two_dihedral(self):
        curve = EllipticCurve(1j)
        pts = {"a": 0.21 + 0.33j, "b": 0.55 + 0.62j, "o": 0.0}
        w1 = CyclicElement.from_word([point("o"), point("a"), point("b")])
        w2 = CyclicElement.from_word([point("o"), point("b"), point("a")])
        r1 = elliptic_correlator(curve, w1, pts, samples=1 << 15, seed=17)
        r2 = elliptic_correlator(curve, w2, pts, samples=1 << 15, seed=18)
        # reversal at depth 2 flips the sign
        assert abs(r1.value + r2.value) < 3 * math.hypot(r1.stderr, r2.stderr)

    @pytest.mark.parametrize("curve, spec", (
        (EllipticCurve(0.3 + 1.1j), GreenSpec.delta(0.21 + 0.13j)),
        (EllipticCurve(0.3 + 1.1j), GreenSpec.volume()),
        (P1, GreenSpec.delta(0.21 + 0.13j)),
        (P1, DINF),
    ), ids=("delta", "volume", "p1-delta", "p1-delta-inf"))
    def test_green_eval_matches_green_and_finite_differences(self, curve, spec):
        frame = curve.tau if isinstance(curve, EllipticCurve) else 1j
        rng = np.random.default_rng(19)
        x = rng.random(8) + rng.random(8) * frame
        y = rng.random(8) + rng.random(8) * frame
        g, dx, dy = curve.green(spec, x, y, True, True)
        assert np.max(np.abs(g - green(curve, spec, x, y))) < 1e-12

        def wirtinger(f, z, h=1e-6):
            return ((f(z + h) - f(z - h))
                    - 1j * (f(z + 1j * h) - f(z - 1j * h))) / (4 * h)

        fd_dx = wirtinger(lambda t: green(curve, spec, t, y), x)
        fd_dy = wirtinger(lambda t: green(curve, spec, x, t), y)
        assert np.max(np.abs(dx - fd_dx)) < 1e-6
        assert np.max(np.abs(dy - fd_dy)) < 1e-6

    def test_ek_involution_via_correlators(self):
        curve = EllipticCurve(1j)
        a = 0.31 + 0.17j
        t1 = ek_correlator_value(curve, 1, 2, a)
        t2 = ek_correlator_value(curve, 2, 1, -a)
        # K(a|t) = K(-a|-t): coefficientwise (p,q) at a matches (q,p)-bar at -a
        assert abs(t1 - np.conj(t2)) < 1e-10


class TestTwoFormVertex:
    """Integrating first over a vertex joining dz1 and dzb1 leaves the
    integral of its one Green edge against the volume form: 0 for the
    zero-mean g of the volume measure, -Im tau g(a - y) for a delta at a."""

    @pytest.mark.parametrize("tau, a, o", (
        (1j, 0.4 + 0.9j, 0.0),
        (0.3 + 1.1j, 0.21 + 0.33j, 0.55 + 0.62j),
    ), ids=("square", "skew"))
    def test_delta_measure_closed_form(self, tau, a, o):
        """C(s:o dz1 dzb1) is (Im tau / pi) g(a - o) under the delta at a
        (normalization 2pii), and exactly 0 under the volume measure, whose
        rule drops its one tree."""
        curve = EllipticCurve(tau)
        word = CyclicElement.from_word([point("o"), hol_form(1),
                                        antihol_form(1)])
        kw = dict(curve=curve, word=word, points={"o": o}, samples=1 << 18,
                  seed=5)
        res = correlate(CorrelatorRequest(green=GreenSpec.delta(a), **kw))
        t = curve.im_tau / np.pi * curve.green_function(a - o)
        assert abs(res.value - t) < 4 * res.stderr
        vol = correlate(CorrelatorRequest(green=GreenSpec.volume(), **kw))
        assert (vol.value, vol.stderr, vol.per_tree) == (0, 0.0, [])

    @pytest.mark.parametrize("letters", ("oF", "aoF", "aFbo"))
    def test_dropped_trees_integrate_to_zero(self, letters):
        """Each tree the volume measure drops, compiled under a delta measure
        (which keeps it) and integrated against the volume Green function at
        its correlator's tree index, is 0 within 4 stderr."""
        word = CyclicElement.from_word(
            [lt for ch in letters for lt in
             ([hol_form(1), antihol_form(1)] if ch == "F" else [point(ch)])])
        kw = dict(curve=EllipticCurve(1j), word=word,
                  points={"o": 0.0, "a": 0.31 + 0.17j, "b": 0.55 + 0.62j},
                  samples=1 << 16, seed=3)
        vol = CorrelatorRequest(green=GreenSpec.volume(), **kw)
        delta = CorrelatorRequest(green=GreenSpec.delta(0.4 + 0.9j), **kw)
        dropped = 0
        (cw,) = word.terms
        for i, forest in enumerate(enumerate_trivalent_trees(cw), 1):
            (tree,) = forest.trees
            if compile_tree(tree, vol) is None:
                comp = compile_tree(tree, delta)
                val, se, _, _ = _eval_tree_mc(comp, vol, i)
                assert abs(val) < 4 * se
                dropped += 1
        assert dropped


class TestPolylogTable:
    def test_depth_two_base_case_is_multiple_green(self):
        from hodgecor.engine import cyclic_polylog_table
        a = [1.0, 0.5 + 0.4j, -0.8 + 0.3j]
        tab = cyclic_polylog_table(a, max_k=0, max_total=0,
                                   samples=1 << 15, seed=30)
        mg = multiple_green(P1, DINF, a, samples=1 << 15, seed=31)
        v = tab[(0, 0, 0)]
        assert abs(v.value - mg.value) < 3 * math.hypot(v.stderr, mg.stderr) + 1e-12

    def test_second_shuffle_relation(self):
        # multiple logarithms in multiplicative coordinates:
        # L(a0, a1, ...) := L(1 : a0 : a0 a1) with a0 a1 a2 = 1; at depth two
        # the second shuffle relation is equivalent to the dihedral ones and
        # reads L(a0, a1, a2) + L(1/a1, 1/a0, 1/a2) = 0 (checked against the
        # Bloch-Wigner closed form as well)
        a0, a1 = 0.4 + 0.25j, 0.7 - 0.45j
        r1 = multiple_green(P1, DINF, [1.0, a0, a0 * a1],
                            samples=1 << 16, seed=32)
        r2 = multiple_green(P1, DINF, [1.0, 1 / a1, 1 / (a0 * a1)],
                            samples=1 << 16, seed=33)
        s = r1.value + r2.value
        assert abs(s) < 3 * math.hypot(r1.stderr, r2.stderr) + 1e-12


def _omega_filter_terms(comp, req):
    """Reference enumeration: every omega_m entry times every choice of
    internal ends for its d and db factors, kept when the slots 2v (dz) and
    2v+1 (dz-bar) it fills, together with those of the form-decorated edges,
    are all distinct."""
    m = len(comp.green_ids) - 1
    src = omega_terms(m)
    if req.normalization == "star":
        src = [(c * math.comb(m, len(A)), j, A, B) for c, j, A, B in src]
    host = {e: (v, h) for (e, v, h) in comp.specials}
    fixed = [2 * host[e][0] + (0 if host[e][1] > 0 else 1)
             for e in comp.tree.edges() if e not in comp.greens]
    terms = []
    for coeff, j, A, B in src:
        choices = []
        for idx, h in [(a, +1) for a in A] + [(b, -1) for b in B]:
            e = comp.green_ids[idx]
            choices.append([(e, d[1], h) for d in comp.greens[e] if d[0] == "v"])
        for pick in itertools.product(*choices):
            slots = [2 * v + (0 if h > 0 else 1) for (_, v, h) in pick] + fixed
            if len(set(slots)) != len(slots) or len(slots) != 2 * comp.k:
                continue
            wsign = perm_parity(slots, sorted(slots))
            terms.append((float(coeff) * wsign * comp.sign,
                          comp.green_ids[j], tuple(pick)))
    return terms


def _p1_word(n):
    labels = {f"p{i}": 0.3 * i + 0.1j * i * i for i in range(n)}
    return CyclicElement.from_word([point(lab) for lab in labels]), labels


def _slot_cases():
    for n in range(2, 7):                         # k = 0..4 internal vertices
        word, labels = _p1_word(n)
        yield f"p1-k{n - 2}-inf", CorrelatorRequest(P1, DINF, word, labels), None
        # the base moves no term; at k = 4 a few trees keep the test short
        yield f"p1-k{n - 2}-finite", CorrelatorRequest(
            P1, GreenSpec.delta(2.5 - 1j), word, labels), \
            ((0, 6, 13) if n == 6 else None)
    word = CyclicElement.from_word([point("a"), point("z")]
                                   + [point("zero")] * 3)
    yield "p1-caterpillar-star", CorrelatorRequest(
        P1, DINF, word, {"a": 1.0, "z": Z, "zero": 0.0},
        normalization="star"), None
    curve = EllipticCurve(1j)
    for p, q in ((1, 1), (2, 1)):
        yield f"ek{p}{q}-pruned", CorrelatorRequest(
            curve, GreenSpec.volume(),
            symmetric_form_word(["o", "a"], [(0, 0), (p, q)]),
            {"o": 0.0, "a": 0.31 + 0.17j}), None
    # a delta measure keeps the vertex whose slots both hold forms
    word = CyclicElement.from_word([point("o"), hol_form(1), antihol_form(1),
                                    point("a")])
    yield "dz-dzb-unpruned", CorrelatorRequest(
        curve, GreenSpec.delta(0.4 + 0.9j), word,
        {"o": 0.0, "a": 0.31 + 0.17j}), None
    # at k = 4: 10 of its 28 trees have a vertex whose slots both hold forms
    yield "dz-dzb-k4", CorrelatorRequest(
        EllipticCurve(0.3 + 1.1j), GreenSpec.delta(0.4 + 0.9j),
        symmetric_form_word(["o", "a", "b"], [(0, 0), (1, 1), (0, 1)]),
        {"o": 0.0, "a": 0.31 + 0.17j, "b": 0.55 + 0.62j}), None
    word, labels = _p1_word(7)                    # k = 5: the old path is slow
    yield "p1-k5-some", CorrelatorRequest(P1, DINF, word, labels), (0, 41)


def _monomials(comp):
    """The signed monomials (coeff, G_j edge, sorted picks) that the
    factorized terms stand for: a block (v, a, b) with two edges expands to
    +d G_a db G_b - d G_b db G_a at v, a one-edge block is its one factor."""
    out = []
    for c, j, blocks in comp.terms:
        choices = []
        for v, a, b in blocks:
            if a is None:
                choices.append([(1, ((b, v, -1),))])
            elif b is None:
                choices.append([(1, ((a, v, +1),))])
            else:
                choices.append([(1, ((a, v, +1), (b, v, -1))),
                                (-1, ((b, v, +1), (a, v, -1)))])
        for combo in itertools.product(*choices):
            sign = math.prod(s for s, _ in combo)
            out.append((c * sign, j,
                        tuple(sorted(f for _, fs in combo for f in fs))))
    return out


@pytest.mark.parametrize("req, pick", [c[1:] for c in _slot_cases()],
                         ids=[c[0] for c in _slot_cases()])
def test_slot_terms_match_omega_filter(req, pick):
    """The factorized terms expand to the omega_m filter's monomials: the
    same multiset of (coefficient, G_j edge, derivative factors), with the
    same floats, and one term per G_j."""
    compiled = 0
    for cw in req.word.terms:
        forests = enumerate_trivalent_trees(cw)
        for i in (pick or range(len(forests))):
            (tree,) = forests[i].trees
            comp = compile_tree(tree, req)
            if comp is None:
                continue
            compiled += 1
            ref = [(c, j, tuple(sorted(pk)))
                   for c, j, pk in _omega_filter_terms(comp, req)]
            assert Counter(_monomials(comp)) == Counter(ref)
            js = [j for _, j, _ in comp.terms]
            assert len(set(js)) == len(js)
            used = {(e, v) for (_, _, pk) in ref for (e, v, _) in pk}
            for e, ends in comp.greens.items():
                assert comp.need[e] == tuple(
                    d[0] == "v" and (e, d[1]) in used for d in ends)
    assert compiled


def _compiled_trees(req):
    """Compiled templates of the word's unpruned trees."""
    for cw in req.word.terms:
        for forest in enumerate_trivalent_trees(cw):
            comp = compile_tree(forest.trees[0], req)
            if comp is not None:
                yield comp


def test_term_counts():
    """One term per Green edge on P^1 point trees: m+1 = 7 on the li4 tree
    (k = 3) and 9 on every k = 4 tree."""
    word = CyclicElement.from_word([point("a"), point("z")]
                                   + [point("zero")] * 3)
    req = CorrelatorRequest(P1, DINF, word, {"a": 1.0, "z": Z, "zero": 0.0})
    (li4,) = _compiled_trees(req)
    assert len(li4.terms) == 7
    word, labels = _p1_word(6)
    trees = list(_compiled_trees(CorrelatorRequest(P1, DINF, word, labels)))
    assert len(trees) == 14 and all(len(c.terms) == 9 for c in trees)


def _extended_reference(comp, req, pts):
    """The omega_m filter's term list summed in extended precision, with the
    P^1 Green function log|x - y| of the delta at infinity and its
    derivatives taken at the same (float64) points."""
    p = pts.astype(np.clongdouble)
    gval, der = {}, {}
    for e, ends in comp.greens.items():
        x, y = (p[:, d[1]] if d[0] == "v" else np.clongdouble(d[1])
                for d in ends)
        diff = x - y
        gval[e] = np.log(np.abs(diff))
        for half, (kind, v) in zip((0.5, -0.5), ends):
            if kind == "v":
                der[e, v] = half / diff
    out = np.zeros(len(p), dtype=np.clongdouble)
    for c, j, pick in _omega_filter_terms(comp, req):
        t = np.longdouble(c) * gval[j]
        for e, v, h in pick:
            t = t * (der[e, v] if h > 0 else np.conj(der[e, v]))
        out += t
    return out * np.clongdouble((-2j) ** comp.k)


@pytest.mark.parametrize("zeros", (3, 4), ids=("li4-k3", "li5-k4"))
def test_integrand_matches_extended_precision(zeros):
    """On the caterpillar trees of weight 4 (k = 3) and 5 (k = 4), P^1 with
    the delta at infinity, the integrand agrees with the reference term
    list summed in extended precision: per-row relative error p99 <= 1e-11,
    and importance-weighted sums within 1e-13 over 2^16 mixture draws."""
    word = CyclicElement.from_word([point("a"), point("z")]
                                   + [point("zero")] * zeros)
    req = CorrelatorRequest(P1, DINF, word, {"a": 1.0, "z": Z, "zero": 0.0})
    (comp,) = _compiled_trees(req)
    mix = _Mixture(P1, comp)
    A, _ = mix.draw(np.random.default_rng([0, zeros, comp.k]), 1 << 16)
    ref = _extended_reference(comp, req, A)
    val = integrand(comp, req, A)
    rel = (np.abs(val - ref) / np.abs(ref)).astype(float)
    assert np.percentile(rel, 99) <= 1e-11
    q = mix.density(A)
    assert abs(np.sum((val - ref) / q)) <= 1e-13 * abs(np.sum(ref / q))


def _reference_spanning(adj, root, k):
    """Reference BFS spanning tree: parent links re-ordered parents first
    by a second walk over the parent array."""
    parents = [None] * k
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                parents[w] = u
                queue.append(w)
    if len(seen) != k:
        return None
    order = []
    pending = [root]
    while pending:
        u = pending.pop(0)
        order.append(u)
        pending.extend(w for w in range(k) if parents[w] == u)
    return tuple((v, parents[v]) for v in order[1:])


def _reference_build(mix, U):
    """Reference sampler: boolean row masks per component and per-variable
    chain offsets over all rows."""
    n = U.shape[0]
    k = mix.k
    cum = np.cumsum(mix.wts)
    ci = np.searchsorted(cum, U[:, 0] * cum[-1], side="right")
    ci = np.minimum(ci, len(mix.comps) - 1)
    A = np.empty((n, k), dtype=complex)
    for v in range(k):
        A[:, v] = mix.curve.global_point(U[:, 1 + 2 * v], U[:, 2 + 2 * v])
    B = A.copy()
    r = mix.rho * U[:, 1 + 2 * k]
    th = 2 * np.pi * U[:, 2 + 2 * k]
    off = r * np.exp(1j * th)
    offv = np.empty((n, k), dtype=complex)
    for v in range(k):
        offv[:, v] = (mix.rho * U[:, 1 + 2 * v]
                      * np.exp(2j * np.pi * U[:, 2 + 2 * v]))
    for i, (kind, v, c) in enumerate(mix.comps):
        m = ci == i
        if not m.any() or kind == "glob":
            continue
        if kind == "pt":
            A[m, v] = c + off[m]
            B[m, v] = c - off[m]
        elif kind == "pair":
            A[m, v] = A[m, c] + off[m]
            B[m, v] = B[m, c] - off[m]
        else:
            root, parents = v
            if c is not None:
                A[m, root] = c + off[m]
                B[m, root] = c - off[m]
            for child, parent in parents:
                A[m, child] = A[m, parent] + offv[m, child]
                B[m, child] = B[m, parent] - offv[m, child]
    return A, B


def _reference_disk(mix, d):
    """Density of a polar disk of radius rho at the point whose difference
    from its centre is d: 1 / (2 pi rho r) within rho, else 0."""
    r = mix.curve.separation(d)
    return np.where(r < mix.rho,
                    1.0 / (2 * np.pi * mix.rho * np.maximum(r, 1e-300)), 0.0)


def _reference_density(mix, pts):
    """Reference mixture density: every component's polar factors evaluated
    afresh from `separation`."""
    qg = mix.curve.global_density(pts)
    prod_g = qg.prod(axis=1)
    q = mix.wts[0] * prod_g
    for i, (kind, v, c) in enumerate(mix.comps):
        if kind == "glob":
            continue
        if kind in ("pt", "pair"):
            d = pts[:, v] - (c if kind == "pt" else pts[:, c])
            q = q + mix.wts[i] * prod_g / qg[:, v] * _reference_disk(mix, d)
        else:
            root, parents = v
            dens = (qg[:, root] if c is None
                    else _reference_disk(mix, pts[:, root] - c))
            for child, parent in parents:
                dens = dens * _reference_disk(mix, pts[:, child] - pts[:, parent])
            q = q + mix.wts[i] * dens
    return q


def _mixtures(req):
    """(label, compiled tree, mixture) for every unpruned tree of the word."""
    for cw in req.word.terms:
        for i, forest in enumerate(enumerate_trivalent_trees(cw)):
            (tree,) = forest.trees
            comp = compile_tree(tree, req)
            if comp is not None and comp.k:
                yield i, comp, _Mixture(req.curve, comp)


# anchors at 0 and at 1 sit next to vertex indices 0 and 1 (1 == 1+0j)
_P1_POINTS = [0.0, 1.0, 0.3 + 0.1j, -0.7 + 0.4j, 0.2 - 0.9j, 1.4 + 0.6j]
SKEW = EllipticCurve(0.3 + 1.1j)


def _p1_points_word(n):
    labels = {f"p{i}": _P1_POINTS[i] for i in range(n)}
    return CyclicElement.from_word([point(lab) for lab in labels]), labels


def _mixture_cases():
    for n in range(3, 7):                         # k = 1..4 internal vertices
        word, labels = _p1_points_word(n)
        yield f"p1-k{n - 2}-inf", CorrelatorRequest(P1, DINF, word, labels)
        yield f"p1-k{n - 2}-finite", CorrelatorRequest(
            P1, GreenSpec.delta(2.5 - 1j), word, labels)
    for p, q in ((1, 1), (2, 1)):
        yield f"ek{p}{q}", CorrelatorRequest(
            EllipticCurve(1j), GreenSpec.volume(),
            symmetric_form_word(["o", "a"], [(0, 0), (p, q)]),
            {"o": 0.0, "a": 0.31 + 0.17j})
    yield "torus-oab", CorrelatorRequest(
        SKEW, GreenSpec.volume(),
        CyclicElement.from_word([point("o"), point("a"), point("b")]),
        {"o": 0.0, "a": 0.21 + 0.33j, "b": 0.55 + 0.62j})


@pytest.mark.parametrize("req", [c[1] for c in _mixture_cases()],
                         ids=[c[0] for c in _mixture_cases()])
def test_mixture_matches_reference(req):
    """Grouped rows and shared polar factors give the reference sampler's
    points and densities bit for bit, also when components get no rows."""
    checked = 0
    for i, comp, mix in _mixtures(req):
        for n in (4096, 8):
            U = np.random.default_rng([i, n, comp.k]).random(
                (n, mix.uniform_dim()))
            A, B, order, twin = mix.build(U)
            assert np.array_equal(np.sort(order), np.arange(n))
            ci = mix._pick(U[order, 0])
            assert np.all(ci[1:] >= ci[:-1])
            assert twin == np.count_nonzero(ci == 0)
            assert A[:twin].tobytes() == B[:twin].tobytes()
            A0, B0 = _reference_build(mix, U)
            assert np.array_equal(A, A0[order]) and np.array_equal(B, B0[order])
            for pts in (A, B):
                assert np.array_equal(mix.density(pts),
                                      _reference_density(mix, pts))
            checked += 1
    assert checked


def test_spanning_matches_reference():
    """The BFS visit order is already parents first: random trees on up to
    8 vertices give the reference's links.  Only trees: a decorated tree's
    internal vertices are always connected by its internal edges."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        adj = {v: set() for v in range(k)}
        for w in range(1, k):
            v = int(rng.integers(0, w))
            adj[v].add(w)
            adj[w].add(v)
        for root in range(k):
            assert (_spanning(adj, root, k)
                    == _reference_spanning(adj, root, k))


def test_one_chain_group_per_root():
    """Every tree's internal edges span its internal vertices, so a mixture
    with k > 1 vertices has k chain groups, rooted at 0..k-1 in turn."""
    cases = [CorrelatorRequest(P1, DINF, *_p1_points_word(n))
             for n in range(3, 7)]
    eight = {f"p{i}": 0.3 * i + 0.2j * i * i for i in range(8)}
    cases += [CorrelatorRequest(P1, DINF, CyclicElement.from_word(
        [point(lab) for lab in list(eight)[:n]]), eight) for n in (7, 8)]
    cases.append(CorrelatorRequest(
        EllipticCurve(1j), GreenSpec.volume(),
        symmetric_form_word(["o", "a", "b"], [(0, 0), (1, 1), (2, 1)]),
        {"o": 0.0, "a": 0.31 + 0.17j, "b": 0.55 + 0.62j}))
    built = set()
    for req in cases:
        for _, comp, mix in _mixtures(req):
            roots = [mix.comps[lo][1][0] for lo, _, _ in mix._chains]
            assert roots == (list(range(comp.k)) if comp.k > 1 else [])
            built.add(comp.k)
    assert built == set(range(1, 7))


def _normalisation_cases():
    for n in range(3, 6):                         # k = 1..3
        word, labels = _p1_points_word(n)
        yield f"p1-k{n - 2}", CorrelatorRequest(P1, DINF, word, labels)
        labels = {lab: 0.37 * j + 0.29j * j * j for j, lab in enumerate(labels)}
        yield f"torus-k{n - 2}", CorrelatorRequest(
            SKEW, GreenSpec.volume(), word, labels)


@pytest.mark.parametrize("req", [c[1] for c in _normalisation_cases()],
                         ids=[c[0] for c in _normalisation_cases()])
def test_mixture_density_normalises(req):
    """E[prod global_density(A) / density(A)] = 1 for A drawn from the
    mixture; the ratio is at most 1/_GLOB_W = 4."""
    for i, comp, mix in _mixtures(req):
        A, _ = mix.draw(np.random.default_rng([41, i, comp.k]), 1 << 16)
        ratio = mix.curve.global_density(A).prod(axis=1) / mix.density(A)
        assert ratio.max() <= 4 + 1e-12
        se = ratio.std() / math.sqrt(len(ratio))
        assert abs(ratio.mean() - 1) < 4 * se


def _mask_cases():
    word, labels = _p1_points_word(5)                       # k = 3
    yield "p1-finite-base", CorrelatorRequest(
        P1, GreenSpec.delta(2.5 - 1j), word, labels), (0,)
    word = CyclicElement.from_word([point(x) for x in "oizw"])
    yield "p1-point-at-infinity", CorrelatorRequest(
        P1, GreenSpec.delta(2.0), word,
        {"o": 0.0, "i": INFINITY, "z": Z, "w": 1.4 + 0.6j}), (0,)
    word = CyclicElement.from_word([point(x) for x in "oabc"])
    labels = {"o": 0.0, "a": 0.21 + 0.33j, "b": 0.55 + 0.62j, "c": 0.8 + 0.1j}
    periods = (1, SKEW.tau, -1 - SKEW.tau)
    yield "torus-volume", CorrelatorRequest(
        SKEW, GreenSpec.volume(), word, labels), periods
    yield "torus-delta", CorrelatorRequest(
        SKEW, GreenSpec.delta(0.4 + 0.9j), word, labels), periods


@pytest.mark.parametrize("req, periods", [c[1:] for c in _mask_cases()],
                         ids=[c[0] for c in _mask_cases()])
def test_singular_mask_flags_exactly_the_planted_rows(req, periods):
    """Rows with a vertex within 1e-9 of a decoration point at the other end
    of one of its Green edges, of a finite delta base, or of the vertex at
    the other end of an internal edge, each shifted by lattice periods on a
    torus, are flagged; mixture draws and rows 3e-9 away are not."""
    base = req.green.base if req.green.kind == "delta" else None
    checked = 0
    for i, comp, mix in _mixtures(req):
        A, _ = mix.draw(np.random.default_rng([43, i, comp.k]), 256)
        planted = np.zeros(len(A), dtype=bool)
        rows = iter(range(len(A)))

        def plant(v, target, hit=True):
            for shift in periods:
                r = next(rows)
                off = (4e-10 if hit else 3e-9) * np.exp(2j * np.pi * r / 7)
                A[r, v] = target(r) + shift + off
                planted[r] = hit

        for e, ends in comp.greens.items():
            for (kv, v), (kc, c) in (ends, ends[::-1]):
                if kv == "v" and kc == "c" and not is_infinity(c):
                    plant(v, lambda r: complex(c))
                    plant(v, lambda r: complex(c), hit=False)
            if base is not None and not is_infinity(base):
                for kv, v in ends:
                    if kv == "v":
                        plant(v, lambda r: complex(base))
            if ends[0][0] == ends[1][0] == "v":
                v, w = ends[0][1], ends[1][1]
                plant(v, lambda r: A[r, w])
                plant(w, lambda r: A[r, v], hit=False)
        assert planted.any() and not planted.all()
        assert np.array_equal(_singular_mask(comp, req.curve, A), planted)
        checked += 1
    assert checked


def test_rows_on_a_singularity_are_redrawn(monkeypatch):
    """A batch row put on a decoration point is redrawn and counted, and the
    estimate stays finite."""
    build = _Mixture.build

    def planted(self, U):
        A, B, order, twin = build(self, U)
        if len(U) > 1:                    # full batches, not the redraws
            # row 0 of each batch of the block, in the draw's row order
            A[np.argsort(order)[::1024], 0] = 0.0
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", planted)
    res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 13, seed=1)
    assert res.rejected == 8              # one row in each of the 8 batches
    assert np.isfinite(res.value) and np.isfinite(res.stderr)


def test_rows_still_singular_after_the_redraws_are_reported(monkeypatch):
    """A row that every draw puts on a decoration point, redraws included,
    is redrawn 8 times and then counted in metadata["residual_singular"]."""
    build = _Mixture.build

    def planted(self, U):
        A, B, order, twin = build(self, U)
        # row 0 of each batch, and each redraw, in the draw's row order
        A[np.argsort(order)[::1024], 0] = 0.0
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", planted)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 13, seed=1)
    assert res.rejected == 8 * 8          # 8 rounds in each of the 8 batches
    assert res.metadata["residual_singular"] == 8


def _block_cases():
    pts4 = [0.0, 1.0, Z, 1.4 + 0.6j]
    yield "mc", lambda: multiple_green(P1, DINF, pts4, samples=1 << 13, seed=2), False
    yield "qmc", lambda: multiple_green(P1, DINF, pts4, samples=1 << 13, seed=2,
                                        scheme="qmc"), False
    yield "torus-delta", lambda: multiple_green(
        SKEW, GreenSpec.delta(0.4 + 0.9j), [0.0, 0.21 + 0.33j, 0.55 + 0.62j],
        samples=1 << 13, seed=3), False
    yield "planted-redraws", lambda: multiple_green(
        P1, DINF, [0.0, 1.0, Z], samples=1 << 13, seed=1), True


@pytest.mark.parametrize("run, plant", [c[1:] for c in _block_cases()],
                         ids=[c[0] for c in _block_cases()])
def test_blocks_match_batch_at_a_time(monkeypatch, run, plant):
    """Stacking a tree's 1,024-row batches into blocks of 4,096 rows changes
    no value, stderr, redraw count or metadata, and makes one `build` call
    per block instead of one per batch."""
    build = _Mixture.build
    calls = []

    def counted(self, U):
        A, B, order, twin = build(self, U)
        if len(U) > 1:                    # blocks, not the redraws
            calls.append(len(U))
            if plant:
                # row 0 of each batch of the block, in the draw's row order
                A[np.argsort(order)[::1024], 0] = 0.0
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", counted)
    blocked = run()
    assert calls == [4096] * 2 * len(blocked.per_tree)
    calls.clear()
    monkeypatch.setattr("hodgecor.engine._BLOCK", 1024)
    single = run()
    assert calls == [1024] * 8 * len(single.per_tree)
    assert blocked.as_dict() == single.as_dict()
    assert blocked.rejected == (8 if plant else 0)
