"""`_lattice` yields the disk |gamma| <= radius in sheared strips: together
they hold every nonzero lattice point of the disk once, on any frame, and a
lattice sum's working set stays bounded."""

import tracemalloc

import numpy as np
import pytest

from hodgecor.geometry import (EKIndex, EllipticCurve, _STRIP,
                               eisenstein_kronecker, _lattice)

TAUS = (1j, 0.3 + 1.1j, 7.3 + 0.2j, 0.3 + 0.05j, 3 + 0.5j)


def _disk(tau, radius):
    """Brute force: every (m, n) of a box around the disk, kept when
    0 < |m + n tau| <= radius, sorted by (n, m)."""
    n_box = int(radius / tau.imag) + 2
    m_box = int(radius * (1 + abs(tau.real) / tau.imag)) + 2
    ms = np.arange(-m_box, m_box + 1)
    out = []
    for n in range(-n_box, n_box + 1):
        gam = ms + n * tau
        keep = (np.abs(gam) <= radius) & ((ms != 0) | (n != 0))
        out.append(np.stack([ms[keep], np.full(keep.sum(), n)]))
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("radius", (8.7, 100.0))
@pytest.mark.parametrize("tau", TAUS)
def test_strips_cover_the_disk_once(tau, radius):
    strips = list(_lattice(EllipticCurve(tau), radius))
    assert all(len(s) <= _STRIP for s in strips)
    if radius > 10:
        assert len(strips) > 1
    gam = np.concatenate(strips)
    n = np.rint(gam.imag / tau.imag).astype(int)
    m = np.rint(gam.real - n * tau.real).astype(int)
    assert np.array_equal(gam, m + n * tau)
    order = np.lexsort((m, n))
    # sorted by (n, m), equal to the brute-force set, so no duplicates
    assert np.array_equal(np.stack([m[order], n[order]]), _disk(tau, radius))


def test_thin_frame_sum_stays_small():
    """EK(1,1) on tau = 0.3+0.05i at radius 120 sums about 900,000 points
    with a traced peak under 8 MB (the whole disk at once took 377 MB)."""
    tracemalloc.start()
    try:
        val, _ = eisenstein_kronecker(EllipticCurve(0.3 + 0.05j),
                                      EKIndex(1, 1, 0.31 + 0.17j), radius=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(val)
    assert peak < 8 * 2 ** 20, peak
