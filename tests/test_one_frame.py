"""The torus Green function runs in one lattice frame: the theta product of
the reduced tau' at the centred argument of `EllipticCurve._centred`.  Every
lattice point is then the origin of the kernel, so g stays even and dg/dz
odd next to each corner of the cell, and thin and tall tori run without a
factor cap or an overflow."""

import json

import numpy as np
import pytest

from hodgecor.cli import main
from hodgecor.geometry import EllipticCurve

DELTAS = 1e-9 * np.array([1 + 0.7j, -0.3 + 1j, 0.6 - 0.8j])


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.1j))
def test_green_is_even_next_to_every_corner(tau):
    curve = EllipticCurve(tau)
    for corner in (0, 1, tau, 1 + tau):
        z = corner + DELTAS
        g, gz = curve.green_pair(z)
        g_neg, gz_neg = curve.green_pair(-z)
        assert np.max(np.abs(g_neg - g)) < 1e-12
        assert np.max(np.abs((gz_neg + gz) / gz)) < 1e-12


@pytest.mark.parametrize("tau", (0.3 + 0.0065j, 0.5 + 0.006j, 150j, 200j))
def test_theta_kernel_matches_ewald_on_thin_and_tall_tori(tau):
    curve = EllipticCurve(tau)
    rng = np.random.default_rng(5)
    for z in rng.random(6) + rng.random(6) * tau:
        assert abs(curve.green_function(z) - curve.green_ewald(z)) < 1e-12


@pytest.mark.parametrize("tau", ("0.5+0.006i", "150i"))
def test_cli_runs_thin_and_tall_tori(tau, capsys):
    # 4,096 samples leave a wide error bar, which may exit 4; no other exit
    code = main(["correlator", "--curve", f"elliptic:tau={tau}", "--mu",
                 "volume", "--word", "C(s:0 s:0.2 s:0.4)", "--samples", "4096",
                 "--out", "-"])
    out, err = capsys.readouterr()
    assert code == 0 or (code == 4 and "above half of |value|" in err)
    payload = json.loads(out)
    assert np.isfinite(payload["value"]["re"] + 1j * payload["value"]["im"])
    assert np.isfinite(payload["stderr"])
