"""Request settings: what `correlate` accepts, what each normalization
returns, and which modules the sampling schemes import."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hodgecor
from hodgecor.engine import (CorrelatorRequest, compile_tree, correlate,
                             multiple_green)
from hodgecor.exact_algebra import CyclicElement, antihol_form, hol_form, point
from hodgecor.geometry import INFINITY, EllipticCurve, GreenSpec, RationalCurve
from hodgecor.tree_calculus import enumerate_trivalent_trees

P1 = RationalCurve()
DINF = GreenSpec.delta(INFINITY)
Z = 0.3 + 0.1j


@pytest.mark.parametrize("kw, message", [
    (dict(scheme="sobol"), "unknown scheme 'sobol'"),
    (dict(normalization="2PII"), "unknown normalization '2PII'"),
    (dict(samples=-5), "samples must be at least 1, not -5"),
    (dict(samples=0), "samples must be at least 1, not 0"),
], ids=["scheme", "normalization", "negative-samples", "zero-samples"])
def test_unknown_settings_are_rejected(kw, message):
    """A setting the engine would not honour raises instead of running a
    default in its place."""
    with pytest.raises(ValueError, match=re.escape(message)):
        multiple_green(P1, DINF, [0.0, 1.0, Z], seed=1, **kw)


def test_one_sample_runs_the_eight_batch_minimum():
    """The smallest accepted request runs 8 batches of 1,024 rows."""
    res = multiple_green(P1, DINF, [0.0, 1.0, Z], samples=1, seed=1)
    assert res.samples == 8 * 1024


def _raw_cases():
    labels = {"a": 0.0, "b": 1.0, "c": Z, "d": 1.4 + 0.6j, "e": -0.4 + 0.5j}
    yield "p1-five-points", CorrelatorRequest(          # kappa = k = 3
        P1, DINF, CyclicElement.from_word([point(x) for x in "abcde"]),
        labels, samples=1 << 13, seed=21)
    yield "torus-forms", CorrelatorRequest(             # kappa = 1 of k = 3
        EllipticCurve(0.3 + 1.1j), GreenSpec.volume(),
        CyclicElement.from_word([point("a"), hol_form(1), point("c"),
                                 point("d"), antihol_form(1)]),
        labels, samples=1 << 13, seed=22)


@pytest.mark.parametrize("req", [c[1] for c in _raw_cases()],
                         ids=[c[0] for c in _raw_cases()])
def test_raw_times_2pii_factor_is_2pii(req):
    """At a fixed seed, each tree's raw value times its 2pii factor
    (2 pi i)^(-#green edges) (-4i)^kappa (-1)^(kappa(kappa-1)/2) is its
    2pii value, and likewise for the stderr with |factor|."""
    raw = correlate(replace(req, normalization="raw"))
    two_pi_i = correlate(req)
    (cw,) = req.word.terms
    comps = [c for c in (compile_tree(f.trees[0], req)
                         for f in enumerate_trivalent_trees(cw))
             if c is not None]
    assert len(comps) == len(raw.per_tree) == len(two_pi_i.per_tree) > 1
    kappas = set()
    for comp, (t, v, e), (t2, v2, e2) in zip(comps, raw.per_tree,
                                             two_pi_i.per_tree):
        assert t == t2 == comp.tree.serialize()
        kap = comp.kappa_vertices
        kappas.add(kap)
        factor = ((2j * np.pi) ** (-len(comp.green_ids)) * (-4j) ** kap
                  * (-1) ** (kap * (kap - 1) // 2))
        assert abs(v * factor - v2) <= 1e-13 * abs(v2)
        assert abs(e * abs(factor) - e2) <= 1e-13 * e2
    assert kappas != {0}
    assert raw.metadata["normalization"] == "raw"


_SCIPY_PROBE = """
import sys
from hodgecor.engine import multiple_green
from hodgecor.geometry import INFINITY, GreenSpec, RationalCurve
multiple_green(RationalCurve(), GreenSpec.delta(INFINITY),
               [0.0, 1.0, 0.3 + 0.1j], samples=1024, seed=1,
               scheme=sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize("scheme", ["mc", "qmc"])
def test_scipy_stays_off_the_mc_path(scheme):
    """In a fresh interpreter an mc correlator imports no scipy module
    (`scipy.stats` alone costs tens of MB of resident memory); a qmc one
    imports `scipy.stats`, so the probe does see such imports."""
    src = str(Path(hodgecor.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, scheme],
                         capture_output=True, text=True, env=env,
                         check=True).stdout.split()
    if scheme == "mc":
        assert out == []
    else:
        assert "scipy.stats" in out
