"""The torus theta product as a polynomial in c = e + 1/e: P = prod t_n,
t_n = 1 + q^(2n) - q^n c, is expanded once per curve into the coefficients
`_theta_poly`, truncated where its terms fall below 1e-18 on the centred
cell, and num = sum q^n prod_{m != n} t_m = -dP/dc is kept as the
coefficients `_theta_dpoly` of 2 num."""

import cmath
import math

import numpy as np
import pytest

from hodgecor.geometry import EllipticCurve, _horner

FRAMES = (0.5 + 0.8660254037844386j, 1j, 0.3 + 1.1j, 3 + 0.5j, 2j, 5j, 12j)


def _factors(curve):
    """The curve's q^n, n = 1.._nterms(), in extended precision."""
    t = curve._frame[1]
    qn = cmath.exp(2j * math.pi * t) ** np.arange(1, curve._nterms() + 1)
    return qn.astype(np.clongdouble)


def _expansion(curve):
    """The coefficients of prod t_n in c, in extended precision."""
    poly = np.ones(1, dtype=np.clongdouble)
    for q in _factors(curve):
        nxt = np.zeros(len(poly) + 1, dtype=np.clongdouble)
        nxt[:-1] += poly * (1 + q * q)
        nxt[1:] -= poly * q
        poly = nxt
    return poly


def _reach(curve):
    """The bound exp(pi Im tau') + 1 of |c| on the centred cell."""
    return math.exp(math.pi * curve._frame[1].imag) + 1.0


@pytest.mark.parametrize("tau", FRAMES)
def test_coefficients_match_extended_expansion(tau):
    curve = EllipticCurve(tau)
    ref = _expansion(curve)
    poly = np.array(curve._theta_poly)
    err = np.abs(poly - ref[:len(poly)]) / np.abs(ref[:len(poly)])
    assert np.max(err).astype(float) <= 1e-15
    m = np.arange(1, len(poly))
    assert np.array_equal(np.array(curve._theta_dpoly, dtype=complex),
                          (-2.0 * m) * poly[1:])


@pytest.mark.parametrize("tau", FRAMES)
def test_num_is_minus_the_derivative(tau):
    """On random c with |c| up to the cell bound, P(c) and num(c) match the
    factor product prod t_n and sum q^n prod_{m != n} t_m, summed in
    extended precision."""
    curve = EllipticCurve(tau)
    rng = np.random.default_rng(17)
    c = _reach(curve) * np.sqrt(rng.random(500)) * np.exp(
        2j * np.pi * rng.random(500))
    cl = c.astype(np.clongdouble)
    tn = [1 + q * q - q * cl for q in _factors(curve)]
    prod = np.prod(tn, axis=0)
    num = sum(q * np.prod(tn[:n] + tn[n + 1:], axis=0)
              for n, q in enumerate(_factors(curve)))
    P = _horner(curve._theta_poly, c)
    assert np.max(np.abs(P - prod)).astype(float) <= 1e-15
    if not curve._theta_dpoly:
        return
    half = 0.5 * _horner(curve._theta_dpoly, c)
    scale = np.max(np.abs(num)).astype(float)
    assert np.max(np.abs(half - num)).astype(float) <= 1e-15 * scale


@pytest.mark.parametrize("im_tau", (0.5, 1.0, 1.1, 2.0))
def test_first_dropped_term_is_negligible(im_tau):
    """|p_(d+1) c^(d+1)| < 1e-18 at the four corners +-1/2 +- tau'/2 of the
    centred cell, where |c| is largest, and the last kept term is not, on
    the frames of `test_first_omitted_factor_is_negligible` (0.3+0.5i is
    not reduced; its tau' is that of the curve)."""
    curve = EllipticCurve(0.3 + 1j * im_tau)
    ref = np.abs(_expansion(curve)).astype(float)
    d = len(curve._theta_poly) - 1
    t = curve._frame[1]
    corners = np.array([0.5 * (a + b * t) for a in (1, -1) for b in (1, -1)])
    c = np.abs(2 * np.cos(2 * np.pi * corners))
    assert np.max(c) <= _reach(curve)
    assert ref[d + 1] * np.max(c) ** (d + 1) < 1e-18
    assert d == 0 or ref[d] * np.min(c) ** d >= 1e-18


def test_degree_is_at_most_three():
    # 3,000 accepted frames, thin, skew and tall
    rng = np.random.default_rng(11)
    accepted = 0
    degrees = set()
    while accepted < 3000:
        tau = complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-3, 2.5))
        try:
            curve = EllipticCurve(tau)
        except ValueError:
            continue
        d = len(curve._theta_poly) - 1
        assert d <= 3 and len(curve._theta_dpoly) == d
        degrees.add(d)
        accepted += 1
    assert degrees == {0, 1, 2, 3}
    assert [len(EllipticCurve(t)._theta_poly) - 1
            for t in (0.5 + 0.8660254037844386j, 1j, 0.3 + 1.1j, 2j, 5j)] \
        == [3, 3, 3, 2, 1]


@pytest.mark.parametrize("tau", (14j, 0.3 + 14j, 150j, 200j))
def test_tall_frames_do_no_polynomial_work(tau):
    """Past Im tau' = 13.2 the polynomial is exactly the constant 1, on a
    skew frame too, and the pass, log|S| and pi C / S, still matches
    `green_ewald`."""
    curve = EllipticCurve(tau)
    assert curve._theta_poly == (1.0,) and curve._theta_dpoly == ()
    rng = np.random.default_rng(5)
    for z in rng.random(6) + rng.random(6) * tau:
        assert abs(curve.green_function(z) - curve.green_ewald(z)) < 1e-12
