"""The engine's random stream, pinned: fixed-seed results of five small
requests at 2^13 samples per tree.

A change to the stream (seeding, draw order, batch or block layout, the
sampler's arithmetic) moves a value by about a stderr, far above the 1e-12
relative tolerance used here, which in turn sits far above floating-point
noise from the platform's libm.  A change that alters the stream on purpose
updates these values and says so.
"""

from fractions import Fraction

import pytest

from hodgecor.engine import (CorrelatorRequest, correlate, elliptic_correlator,
                             multiple_green, symmetric_form_word)
from hodgecor.exact_algebra import CyclicElement, point
from hodgecor.geometry import INFINITY, EllipticCurve, GreenSpec, RationalCurve

P1 = RationalCurve()
Z = 0.3 + 0.1j
N = 1 << 13


def _two_term_word():
    word = (CyclicElement.from_word([point(x) for x in "abcd"])
            + CyclicElement.from_word([point(x) for x in "acb"],
                                      Fraction(-1, 2)))
    return correlate(CorrelatorRequest(
        P1, GreenSpec.delta(INFINITY), word,
        {"a": 0.0, "b": 1.0, "c": Z, "d": 1.4 + 0.6j}, samples=N, seed=15))


RUNS = {
    "tripod-base-2": lambda: multiple_green(
        P1, GreenSpec.delta(2.0), [0.0, 1.0, Z], samples=N, seed=11),
    "qmc-four-point": lambda: multiple_green(
        P1, GreenSpec.delta(INFINITY), [0.0, 1.0, Z, 1.4 + 0.6j],
        samples=N, seed=12, scheme="qmc"),
    "ek11-square": lambda: elliptic_correlator(
        EllipticCurve(1j), symmetric_form_word(["o", "a"], [(0, 0), (1, 1)]),
        {"o": 0.0, "a": (1 + 1j) / 2}, samples=N, seed=13),
    "skew-torus-delta": lambda: multiple_green(
        EllipticCurve(0.3 + 1.1j), GreenSpec.delta(0.4 + 0.9j),
        [0.0, 0.21 + 0.33j, 0.55 + 0.62j], samples=N, seed=14),
    "two-term-word": _two_term_word,
}

# value, stderr, samples, rejected, then (value, stderr) per tree
PINNED = {
    "tripod-base-2": ((0.005505910744751495+0j), 0.00021474066174530113, 8192, 0, [
        ((0.005505910744751495+0j), 0.00021474066174530113),
    ]),
    "qmc-four-point": (0.0070595346890477305j, 8.617182257701818e-05, 16384, 0, [
        (0.0038076691829049335j, 4.994875554123002e-05),
        (0.003251865506142797j, 7.021897767788664e-05),
    ]),
    "ek11-square": ((8.050834493267823e-05-0.01509996010350343j), 0.00026122569330192246, 16384, 0, [
        ((7.331229260670504e-05-0.007535774044504202j), 0.00018075479674581072),
        ((7.196052325973189e-06-0.007564186058999229j), 0.00018859100268690105),
    ]),
    "skew-torus-delta": ((-0.007912090518537423+0j), 0.00100026905579951, 8192, 0, [
        ((-0.007912090518537423+0j), 0.00100026905579951),
    ]),
    "two-term-word": ((0.003562176759617194+0.007136391033433876j), 0.00011544767482543153, 24576, 0, [
        (0.0037804713394114296j, 7.387496624841521e-05),
        (0.003355919694022447j, 6.477970767839686e-05),
        ((0.003562176759617194-0j), 6.061554633504132e-05),
    ]),
}

REL = 1e-12


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("name", list(RUNS))
def test_fixed_seed_values(name):
    res = RUNS[name]()
    value, stderr, samples, rejected, per_tree = PINNED[name]
    assert _close(res.value, value) and _close(res.stderr, stderr)
    assert (res.samples, res.rejected) == (samples, rejected)
    assert len(res.per_tree) == len(per_tree)
    for (_, v, e), (v0, e0) in zip(res.per_tree, per_tree):
        assert _close(v, v0) and _close(e, e0)
