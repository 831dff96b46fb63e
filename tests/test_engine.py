import math
import warnings

import numpy as np
import pytest

from hodgecor.engine import (
    CorrelatorRequest, correlate, cyclic_polylog_series,
    elliptic_correlator, levin_reference, multiple_green, symmetric_form_word,
)
from hodgecor.exact_algebra import CyclicElement, point
from hodgecor.geometry import (
    INFINITY, EllipticCurve, GreenSpec, RationalCurve, cross_ratio,
    ek_correlator_value, green, single_valued_polylog,
)

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
                                samples=1 << 14, seed=9, scheme="qmc", batch=1500)
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


class TestConstantIndependence:
    def test_degree_zero_divisor(self):
        labels = {"a": 0.0, "b": 1.0, "c": 0.4 + 0.3j, "d": -0.8 + 0.6j}
        w = (CyclicElement.from_word([point("a"), point("c"), point("d")])
             - CyclicElement.from_word([point("b"), point("c"), point("d")]))
        kw = dict(curve=P1, green=DINF, word=w, points=labels,
                  samples=1 << 16)
        r0 = correlate(CorrelatorRequest(seed=21, **kw))
        r1 = correlate(CorrelatorRequest(seed=22, green_constant=1.0, **kw))
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
        g, dx, dy = curve.green(spec, x, y, 0.5, True, True)
        assert np.max(np.abs(g - green(curve, spec, x, y, 0.5))) < 1e-12

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

    def test_variance_flag_reported(self):
        res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1 << 14, seed=34)
        assert res.metadata["variance_stabilized"] in (True, False)
