import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hodgecor.geometry import (
    INFINITY, EKIndex, EllipticCurve, GreenSpec, RationalCurve,
    bernoulli_beta, cross_ratio, eisenstein_kronecker, ek_generating_series,
    green, green_arakelov_decomposition, levin_polylog, polylog,
    single_valued_polylog,
)

TAU = 1j
E = EllipticCurve(TAU)
SKEW = EllipticCurve(0.3 + 1.1j)
RNG = np.random.default_rng(42)


def random_torus_points(n, rng=RNG, margin=0.06, tau=TAU):
    u = margin + (1 - 2 * margin) * rng.random(n)
    v = margin + (1 - 2 * margin) * rng.random(n)
    return u + v * complex(tau)


def triple_product_reference(curve, z, nmax=60):
    """(log|theta_1|, log|eta|, theta_1'/theta_1) factor by factor, as
    log|2 sin(pi z)| + sum_n log|1 - q^n| + log|1 - q^n e| + log|1 - q^n/e|
    and pi cot(pi z) + 2 pi i sum_n (q^n/e/(1 - q^n/e) - q^n e/(1 - q^n e))."""
    tau = complex(curve.tau)
    q = cmath.exp(2j * math.pi * tau)
    z = np.asarray(z, dtype=complex)
    e = np.exp(2j * np.pi * z)
    log_theta = np.log(np.abs(2 * np.sin(np.pi * z))) - 2 * np.pi * tau.imag / 8
    log_eta = -2 * np.pi * tau.imag / 24
    dlog = np.pi / np.tan(np.pi * z)
    for n in range(1, nmax):
        qn = q ** n
        log_theta = (log_theta + np.log(np.abs(1 - qn)) + np.log(np.abs(1 - qn * e))
                     + np.log(np.abs(1 - qn / e)))
        log_eta += math.log(abs(1 - qn))
        dlog = dlog + 2j * np.pi * (qn / e / (1 - qn / e) - qn * e / (1 - qn * e))
    return log_theta, log_eta, dlog


def near_boundary_points(tau, eps=1e-3):
    """Reduced points within eps of the four lattice points of the frame and
    of the four edges of the fundamental domain."""
    uv = [(eps, eps), (1 - eps, eps), (eps, 1 - eps), (1 - eps, 1 - eps),
          (0.5 * eps, 0.3), (1 - 0.5 * eps, 0.7), (0.4, 0.5 * eps),
          (0.6, 1 - 0.5 * eps)]
    return np.array([u + v * tau for u, v in uv])


class TestGreenRational:
    def test_base_infinity_log(self):
        assert green(RationalCurve(), GreenSpec.delta(INFINITY), 0.0, 1.0) == 0.0
        assert np.isclose(green(RationalCurve(), GreenSpec.delta(INFINITY), 0.0, 2.0),
                          math.log(2))

    def test_symmetry(self):
        spec = GreenSpec.delta(0.5 + 0.25j)
        x, y = 1.2 + 0.3j, -0.7 + 1.1j
        # symmetric up to floating summation order
        assert abs(green(RationalCurve(), spec, x, y)
                   - green(RationalCurve(), spec, y, x)) < 1e-13

    def test_normalized_at_base(self):
        # the measure terms enter with a minus, so G_a ~ -log|t| at the base
        # point; the unit-tangent normalization kills the constant:
        # G_a(x, y) + log|x - a| -> 0 as x -> a
        a, y = 0.3, 2.0 + 1.0j
        for eps in (1e-3, 1e-5):
            g = green(RationalCurve(), GreenSpec.delta(a), a + eps, y)
            assert abs(g + math.log(eps)) < 1e-2


class TestCurveLaws:
    @pytest.mark.parametrize("curve, centre, radius", (
        (RationalCurve(), 0.5 + 0.2j, 1.5),
        (SKEW, 0.5 + 0.5 * SKEW.tau, 0.3),
    ), ids=("p1", "torus"))
    def test_global_density_is_density_of_global_point(self, curve, centre, radius):
        # z ~ q gives E[1_D(z) / q(z)] = area(D); D is a disc inside the
        # fundamental domain on the torus
        rng = np.random.default_rng(7)
        z = curve.global_point(rng.random(1 << 16), rng.random(1 << 16))
        w = (np.abs(z - centre) < radius) / curve.global_density(z)
        se = w.std() / math.sqrt(w.size)
        assert abs(w.mean() - math.pi * radius ** 2) < 4 * se

    @pytest.mark.parametrize("curve, spec", (
        (RationalCurve(), GreenSpec.volume()),
        (E, GreenSpec.delta(INFINITY)),
    ), ids=("p1-volume", "torus-delta-inf"))
    def test_unsupported_measure_rejected(self, curve, spec):
        with pytest.raises(ValueError):
            green(curve, spec, 0.1 + 0.2j, 0.5 + 0.3j)


class TestThetaKernel:
    @pytest.mark.parametrize("tau", (1j, 0.3 + 1.1j, 0.5j, 2j))
    def test_matches_triple_product(self, tau):
        curve = EllipticCurve(tau)
        z = curve.reduce(np.concatenate([
            random_torus_points(40, np.random.default_rng(7), 0.0, tau),
            near_boundary_points(tau)]))
        log_theta, log_eta, dlog = triple_product_reference(curve, z)
        log_ratio, kernel_dlog = curve.theta_quotient(z)
        assert np.max(np.abs(log_ratio - (log_theta - log_eta))) < 1e-12
        assert np.max(np.abs(kernel_dlog - dlog) / np.abs(dlog)) < 1e-12
        assert np.max(np.abs(curve.log_abs_theta1(z) - log_theta)) < 1e-12
        assert abs(curve.log_abs_eta() - log_eta) < 1e-14
        assert np.array_equal(curve.theta1_log_derivative(z), kernel_dlog)

    @pytest.mark.parametrize("im_tau", (0.5, 1.0, 1.1, 2.0))
    def test_first_omitted_factor_is_negligible(self, im_tau):
        # |1 - t_n| <= |q^n e| + |q^n / e| + |q|^(2n) for the first factor
        # n the product leaves out, at reduced points up to the top edge
        tau = 0.3 + 1j * im_tau
        curve = EllipticCurve(tau)
        n = curve._nterms() + 1
        qn = cmath.exp(2j * math.pi * tau) ** n
        z = curve.reduce(np.concatenate([
            random_torus_points(200, np.random.default_rng(3), 0.0, tau),
            near_boundary_points(tau, 1e-9)]))
        e = np.exp(2j * np.pi * z)
        assert np.max(np.abs(qn * e) + np.abs(qn / e)) + abs(qn) ** 2 < 1e-17
        # and no factor is kept that the tail bound does not need
        q = math.exp(-2 * math.pi * im_tau)
        assert n - 1 == 6 or q ** (n - 2) >= 1e-18


class TestGreenElliptic:
    def test_two_evaluators_agree(self):
        for curve in (E, SKEW):
            for z in random_torus_points(12, tau=curve.tau):
                assert abs(curve.green_function(z) - curve.green_ewald(z)) < 1e-9

    def test_regulated_sum_agrees_loosely(self):
        # the Richardson-extrapolated Gaussian regulator is the slow check;
        # its accuracy degrades near the lattice, so test at safe points
        for z in (0.3 + 0.4j, 0.45 + 0.31j, 0.71 + 0.52j):
            assert abs(E.green_function(z) - E.green_lattice(z)) < 1e-6

    def test_zero_mean(self):
        n = 400
        u, v = np.meshgrid((np.arange(n) + 0.5) / n, (np.arange(n) + 0.5) / n)
        z = u + v * complex(TAU)
        assert abs(E.green_function(z).mean()) < 1e-4

    def test_symmetry(self):
        for z in random_torus_points(8):
            assert abs(E.green_function(z) - E.green_function(-z)) < 1e-10

    def test_pde_away_from_singularity(self):
        # d^2 g / dz dzbar = pi / Im tau off the lattice (the -volume term)
        h = 1e-4
        for z in random_torus_points(6):
            g = E.green_function
            lap = (g(z + h) + g(z - h) + g(z + 1j * h) + g(z - 1j * h)
                   - 4 * g(z)) / h ** 2
            assert abs(lap / 4 - math.pi / E.im_tau) < 1e-2

    def test_derivative_consistency(self):
        h = 1e-6
        for z in random_torus_points(6):
            g = E.green_function
            num = ((g(z + h) - g(z - h)) / (2 * h)
                   - 1j * (g(z + 1j * h) - g(z - 1j * h)) / (2 * h)) / 2
            assert abs(num - E.green_dz(z)) < 1e-4

    def test_arakelov_decomposition_translation_invariance(self):
        a, x, y = 0.21 + 0.13j, 0.52 + 0.61j, 0.85 + 0.37j
        c = 0.11 + 0.23j
        g1 = green_arakelov_decomposition(E, a, x, y)
        g2 = green_arakelov_decomposition(E, a + c, x + c, y + c)
        assert abs(g1 - g2) < 1e-9

    def test_arakelov_decomposition_is_delta_green(self):
        a, x, y = 0.21 + 0.13j, 0.52 + 0.61j, 0.85 + 0.37j
        direct = green(E, GreenSpec.delta(a), x, y)
        assert abs(direct - green_arakelov_decomposition(E, a, x, y)) < 1e-12

    def test_delta_green_laplacian_matches_rhs(self):
        # away from diagonal and base point the x-Laplacian of G_a sees only
        # the two volume terms: d^2/dz dzbar G_a = pi/y - (-pi/y) applied to
        # g(x-y) - g(x-a): the volume contributions cancel
        h = 1e-4
        a, y = 0.21 + 0.13j, 0.72 + 0.48j
        for x in random_torus_points(4):
            f = lambda t: green(E, GreenSpec.delta(a), t, y)
            lap = (f(x + h) + f(x - h) + f(x + 1j * h) + f(x - 1j * h)
                   - 4 * f(x)) / h ** 2
            assert abs(lap) < 2e-2

    def test_coincidence_rejected(self):
        with pytest.raises(ValueError):
            green_arakelov_decomposition(E, 0.2 + 0.2j, 0.2 + 0.2j, 0.5)


class TestPolylog:
    def test_li1_log(self):
        assert abs(polylog(1, 0.5) - math.log(2)) < 1e-14

    def test_li_zero(self):
        for n in (1, 2, 5):
            assert polylog(n, 0) == 0

    def test_li2_against_quadrature(self):
        # integral definition -int_0^z log(1-t)/t dt along the segment
        z = 0.41 + 0.1j
        ts = np.linspace(1e-9, 1, 20001)
        pts = ts * z
        vals = -np.log(1 - pts) / pts
        quad = np.trapezoid(vals, pts)
        assert abs(polylog(2, z) - quad) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog(2, 1.2)

    def test_beta_coefficients(self):
        beta = bernoulli_beta(4)
        assert beta[0] == 1 and beta[1] == -1
        assert beta[2] == Fraction(1, 3) and beta[3] == 0

    def test_sv_vanishes_on_reals(self):
        for x in (0.2, 0.5, -0.8):
            assert single_valued_polylog(2, x) == 0.0

    def test_sv_conjugation_antisymmetry(self):
        z = 0.3 + 0.45j
        assert np.isclose(single_valued_polylog(2, np.conj(z)),
                          -single_valued_polylog(2, z))

    def test_sv_dilog_at_i(self):
        # series value at i is Catalan's constant
        assert abs(single_valued_polylog(2, 1j * (1 - 1e-14)) - 0.9159655941772190) < 1e-9

    def test_levin_low_weight_agrees(self):
        z = 0.37 + 0.21j
        for n in (2, 3):
            _, lev = levin_polylog(n, z)
            assert np.isclose(lev, single_valued_polylog(n, z), atol=1e-13)

    def test_levin_weight_four(self):
        # L_4 = Lcal_4 + (1/15) Lcal_2 log^2|z|: the k=0 coefficients agree
        # (C(6,3)^{-1} 4^3 4^{-3} C(5,3) 2/1! = 1) and the k=2 term remains
        z = 0.37 + 0.21j
        ratio = Fraction(1, math.comb(6, 3)) * Fraction(math.comb(5, 3) * 2)
        assert ratio == 1
        _, lev = levin_polylog(4, z)
        expected = (single_valued_polylog(4, z)
                    + single_valued_polylog(2, z) * math.log(abs(z)) ** 2 / 15)
        assert np.isclose(lev, expected, atol=1e-12)
        assert abs(lev - single_valued_polylog(4, z)) > 1e-4


class TestCrossRatio:
    def test_normalization(self):
        for x in (0.3 + 0.1j, -2.0, 5j):
            assert cross_ratio(INFINITY, 0, 1, x) == pytest.approx(x)

    def test_moebius_inversion(self):
        z = [0.3 + 1j, 2.0 - 0.5j, -1.1, 4.2 + 0.2j]
        r1 = cross_ratio(*z)
        r2 = cross_ratio(*[1 / w for w in z])
        assert np.isclose(r1, r2)

    def test_double_swap_invariance(self):
        z = [0.3 + 1j, 2.0 - 0.5j, -1.1, 4.2 + 0.2j]
        r1 = cross_ratio(*z)
        r2 = cross_ratio(z[1], z[0], z[3], z[2])
        assert np.isclose(r1, r2)

    def test_coincidence(self):
        with pytest.raises(ValueError):
            cross_ratio(1, 1, 2, 3)


class TestEisensteinKronecker:
    def test_chi_trivial_at_zero(self):
        gam = np.array([1 + 0j, TAU, 2 - TAU])
        assert np.allclose(E.chi(0.0, gam), 1.0)

    def test_chi_unitary(self):
        a = 0.3 + 0.2j
        gam = np.array([1 + 0j, 3 + 2j * 1, 2 - 1j])
        assert np.allclose(np.abs(E.chi(a, gam)), 1.0)

    def test_two_torsion_sum_real(self):
        val, _ = eisenstein_kronecker(E, EKIndex(1, 1, (1 + 1j) / 2), radius=60)
        assert abs(val.imag) < 1e-12

    def test_cutoff_stability(self):
        a = (1 + 1j) / 2
        v1, _ = eisenstein_kronecker(E, EKIndex(1, 1, a), radius=200)
        v2, _ = eisenstein_kronecker(E, EKIndex(1, 1, a), radius=400)
        assert abs(v1 - v2) < 1e-6

    def test_truncation_error_monotone_envelope(self):
        a = 0.31 + 0.17j
        ref, _ = eisenstein_kronecker(E, EKIndex(2, 1, a), radius=400)
        errs = [abs(eisenstein_kronecker(E, EKIndex(2, 1, a), radius=r)[0] - ref)
                for r in (25, 50, 100, 200)]
        assert errs[0] > errs[-1]
        assert all(e < 1e-2 for e in errs)

    def test_divergent_mode_regulated(self):
        # p = q = 0 returns the regulated value tied to the Green function
        a = 0.3 + 0.4j
        val, err = eisenstein_kronecker(E, EKIndex(0, 0, a))
        target = E.green_function(a) * math.pi / E.im_tau
        assert abs(val - target) < 1e-4


class TestGeneratingSeries:
    def test_t_zero_matches_regulated(self):
        a = 0.31 + 0.22j
        direct, series = ek_generating_series(E, a, 0.0, truncation=1)
        pref = (complex(TAU) - np.conj(complex(TAU))) / (2j * np.pi)
        target = pref * E.green_function(a) * math.pi / E.im_tau
        assert abs(direct - target) < 1e-3
        assert abs(series - target) < 1e-12

    def test_involution(self):
        a, t = 0.31 + 0.22j, 0.04 + 0.02j
        d1, _ = ek_generating_series(E, a, t, truncation=1)
        d2, _ = ek_generating_series(E, -a, -t, truncation=1)
        assert abs(d1 - d2) < 1e-6

    def test_series_vs_direct(self):
        a, t = 0.31 + 0.22j, 0.05
        direct, series = ek_generating_series(E, a, t, truncation=8)
        assert abs(direct - series) < 1e-4
