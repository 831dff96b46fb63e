"""A sample row on a Green-function singularity is redrawn at once from a
generator keyed by its batch and its row: its redraws depend on no other
row, and no chunk is kept past its own weighing."""

import tracemalloc

import numpy as np
import pytest

from hodgecor.engine import _Mixture, cyclic_polylog_series, multiple_green
from hodgecor.geometry import INFINITY, GreenSpec, RationalCurve

Z = 0.3 + 0.1j


def _plant(monkeypatch, rows):
    """Put vertex 0 on one of its anchors in the given rows of every first
    draw (at least 1,024 rows; the redraws stay as drawn)."""
    build = _Mixture.build

    def planted(self, U):
        A, B, order, twin = build(self, U)
        if len(U) >= 1024:
            anchor = next(c for kind, v, c in self.comps
                          if kind == "pt" and v == 0)
            A[np.argsort(order)[rows], 0] = anchor    # rows of the draw
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", planted)


def _li4():
    return cyclic_polylog_series([1.0, Z], [0, 3], samples=1 << 18, seed=31)


def _traced_peak():
    tracemalloc.start()
    try:
        _li4()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_flat_with_singular_rows(monkeypatch):
    """The li4 run with a row on an anchor every 512 rows peaks within 10%
    of the same run with none: no chunk waits for the block's redraws."""
    cyclic_polylog_series([1.0, Z], [0, 3], samples=1 << 12, seed=3)
    clean = _traced_peak()
    _plant(monkeypatch, slice(None, None, 512))
    planted = _traced_peak()
    assert planted <= 1.1 * clean, (clean, planted)


def _redrawn(monkeypatch, rows):
    """The request's result and the rows `_Mixture.draw` returned, in
    order, with the given rows of each first draw planted."""
    draw = _Mixture.draw
    got = []

    def recorded(self, rng, n):
        A, B = draw(self, rng, n)
        got.extend(A)
        return A, B

    monkeypatch.setattr(_Mixture, "draw", recorded)
    _plant(monkeypatch, rows)
    res = multiple_green(RationalCurve(), GreenSpec.delta(INFINITY),
                         [0.0, 1.0, Z], samples=8192, seed=17)
    monkeypatch.undo()
    return res, got


def test_redraw_depends_on_its_row_alone(monkeypatch):
    """Rows 5 and 700 of the first batch of each 4-batch block, then row
    700 alone: row 700's redraws are the same points either way."""
    both, pair = _redrawn(monkeypatch, [5, 700])
    alone, single = _redrawn(monkeypatch, [700])
    assert (both.rejected, alone.rejected) == (4, 2)
    assert len(pair) == 4 and len(single) == 2
    assert np.array_equal(np.array(pair[1::2]), np.array(single))


# The planted request of the test above, pinned at the row-keyed redraw
# stream: value, stderr, samples, rejected, then (value, stderr) per tree.
PINNED = (0.007084873757637963, 0.00013372864628567814, 8192, 4, [
    (0.007084873757637963, 0.00013372864628567814)])
REL = 1e-12


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


def test_planted_redraws_pinned(monkeypatch):
    res, _ = _redrawn(monkeypatch, [5, 700])
    value, stderr, samples, rejected, per_tree = PINNED
    assert _close(res.value, value) and _close(res.stderr, stderr)
    assert (res.samples, res.rejected) == (samples, rejected)
    assert res.metadata["residual_singular"] == 0
    assert len(res.per_tree) == len(per_tree)
    for (_, v, e), (v0, e0) in zip(res.per_tree, per_tree):
        assert _close(v, v0) and _close(e, e0)
