"""Torus distances on any frame of the lattice: `wrap` rounds coordinates in
the Lagrange-Gauss-reduced basis, so `separation` is the distance to the
nearest translate within `default_rho`, and the mixture densities and the
correlator do not depend on which tau names the lattice."""

import math

import numpy as np
import pytest

from hodgecor.engine import (CorrelatorRequest, _Mixture, compile_tree,
                             elliptic_correlator, symmetric_form_word)
from hodgecor.geometry import EllipticCurve, GreenSpec, ek_correlator_value
from hodgecor.tree_calculus import enumerate_trivalent_trees

A = 0.31 + 0.17j
W11 = symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])


@pytest.mark.parametrize("tau", (3 + 0.5j, 0.1 + 0.3j, 7.3 + 0.2j, 0.5 + 0.9j))
def test_separation_is_the_nearest_translate(tau):
    """For d within `default_rho` of a lattice point, `separation(d)` is
    the distance to the nearest translate m + n tau, found by brute force."""
    curve = EllipticCurve(tau)
    rng = np.random.default_rng([5, int(100 * tau.real), int(100 * tau.imag)])
    n = 400
    off = curve.default_rho * np.sqrt(rng.random(n)) * np.exp(
        2j * np.pi * rng.random(n))
    m, k = rng.integers(-5, 6, size=(2, n))
    d = off + m + k * tau
    M, K = np.meshgrid(np.arange(-10, 11), np.arange(-10, 11))
    lattice = (M + K * tau).ravel()
    brute = np.abs(d[:, None] - lattice[None, :]).min(axis=1)
    assert np.allclose(curve.separation(d), brute, rtol=1e-12, atol=1e-12)
    assert np.allclose(brute, np.abs(off), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("tau", (3 + 0.5j, 0.1 + 0.3j))
def test_mixture_density_normalises_on_a_skew_frame(tau):
    """E[prod global_density(A) / density(A)] = 1 for A drawn from the
    mixture, on frames far from the reduced one."""
    curve = EllipticCurve(tau)
    req = CorrelatorRequest(curve, GreenSpec.volume(), W11, {"o": 0.0, "a": A})
    checked = 0
    for cw in W11.terms:
        for i, forest in enumerate(enumerate_trivalent_trees(cw)):
            comp = compile_tree(forest.trees[0], req)
            if comp is None or not comp.k:
                continue
            mix = _Mixture(curve, comp)
            pts, _ = mix.draw(np.random.default_rng([41, i, comp.k]), 1 << 16)
            ratio = curve.global_density(pts).prod(axis=1) / mix.density(pts)
            se = ratio.std() / math.sqrt(len(ratio))
            assert abs(ratio.mean() - 1) < 4 * se
            checked += 1
    assert checked


# tau = 0.5i and 3 + 0.5i name one lattice, so one closed form serves both
EK11 = ek_correlator_value(EllipticCurve(0.5j), 1, 1, A)


@pytest.mark.parametrize("tau", (0.5j, 3 + 0.5j))
@pytest.mark.parametrize("seed", (1, 2))
def test_ek11_does_not_depend_on_the_frame(tau, seed):
    res = elliptic_correlator(EllipticCurve(tau), W11, {"o": 0.0, "a": A},
                              samples=1 << 17, seed=seed)
    assert abs(res.value - EK11) < 4 * res.stderr
