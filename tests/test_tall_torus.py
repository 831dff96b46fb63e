"""On a tall torus the polar mixture disks must still lie inside their
Voronoi cells: `default_rho` is capped at 0.45 times the shortest lattice
vector, or the mixture density undercounts the disks that wrap onto
themselves and the correlator is biased."""

import math

import numpy as np
import pytest

from hodgecor.engine import (CorrelatorRequest, _Mixture, compile_tree,
                             elliptic_correlator, symmetric_form_word)
from hodgecor.geometry import EllipticCurve, GreenSpec, ek_correlator_value
from hodgecor.tree_calculus import enumerate_trivalent_trees

TALL = EllipticCurve(5j)
A = 0.31 + 0.17j
W11 = symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])


def _shortest(tau):
    """Brute force: the shortest nonzero m + n tau, |m|, |n| <= 40."""
    m, n = np.meshgrid(np.arange(-40, 41), np.arange(-40, 41))
    d = np.abs(m + n * tau)
    return d[(m != 0) | (n != 0)].min()


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.1j, 5j, 1.5 + 8j, 0.3 + 0.05j,
                                 7.3 + 0.2j, 0.5 + 0.9j))
def test_rho_is_capped_by_the_shortest_vector(tau):
    rho = EllipticCurve(tau).default_rho
    assert rho == pytest.approx(min(0.28 * math.sqrt(tau.imag),
                                    0.45 * _shortest(tau)), rel=1e-12)
    # unchanged where the cap does not bind
    if tau in (1j, 0.3 + 1.1j):
        assert rho == 0.28 * math.sqrt(tau.imag)


def test_mixture_density_normalises_on_a_tall_torus():
    """E[prod global_density(A) / density(A)] = 1 for A drawn from the
    mixture."""
    req = CorrelatorRequest(TALL, GreenSpec.volume(), W11, {"o": 0.0, "a": A})
    checked = 0
    for cw in W11.terms:
        for i, forest in enumerate(enumerate_trivalent_trees(cw)):
            comp = compile_tree(forest.trees[0], req)
            if comp is None or not comp.k:
                continue
            mix = _Mixture(TALL, comp)
            pts, _ = mix.draw(np.random.default_rng([41, i, comp.k]), 1 << 16)
            ratio = TALL.global_density(pts).prod(axis=1) / mix.density(pts)
            se = ratio.std() / math.sqrt(len(ratio))
            assert abs(ratio.mean() - 1) < 4 * se
            checked += 1
    assert checked


@pytest.mark.parametrize("seed", (1, 2))
def test_ek11_on_a_tall_torus(seed):
    res = elliptic_correlator(TALL, W11, {"o": 0.0, "a": A}, samples=1 << 17,
                              seed=seed)
    assert abs(res.value - ek_correlator_value(TALL, 1, 1, A)) < 4 * res.stderr
