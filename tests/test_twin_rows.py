"""`_Mixture.build` never moves a global-component row, so on those rows
the antithetic twin B is A, and `_eval_tree_mc` weighs them once: reusing
A's weight there changes no bit of any result, since 0.5 * (x + x) == x."""

import numpy as np
import pytest

from hodgecor.engine import (_Mixture, elliptic_correlator, multiple_green,
                             symmetric_form_word)
from hodgecor.geometry import INFINITY, EllipticCurve, GreenSpec, RationalCurve

P1 = RationalCurve()
Z = 0.3 + 0.1j

CASES = {
    "torus-ek11": lambda: elliptic_correlator(
        EllipticCurve(1j), symmetric_form_word(["o", "a"], [(0, 0), (1, 1)]),
        {"o": 0.0, "a": (1 + 1j) / 2}, samples=1 << 14, seed=41),
    # 8,193 samples: nine 1,024-row batches, in blocks of 4, 4 and 1
    "nine-batches": lambda: multiple_green(
        P1, GreenSpec.delta(2.0), [0.0, 1.0, Z, 1.4 + 0.6j], samples=8193,
        seed=42),
    "planted-redraws": lambda: multiple_green(
        P1, GreenSpec.delta(INFINITY), [0.0, 1.0, Z], samples=1 << 13,
        seed=43),
}


def _run(monkeypatch, name, weigh_all):
    """The case's result; with weigh_all, `build` reports no twin rows, so
    every B row is weighed.  The planted case puts vertex 0 on its anchor 0
    in the first and the middle global row of every block, both inside the
    twin prefix, so their redraws must end the prefix there."""
    build = _Mixture.build
    planted = []

    def patched(self, U):
        A, B, order, twin = build(self, U)
        if name == "planted-redraws" and len(U) > 1:
            assert twin > 1
            rows = [0, twin // 2]
            A[rows, 0] = 0.0
            B[rows, 0] = 0.0
            planted.extend(rows)
        return A, B, order, 0 if weigh_all else twin

    monkeypatch.setattr(_Mixture, "build", patched)
    res = CASES[name]()
    monkeypatch.undo()
    return res, len(planted)


@pytest.mark.parametrize("name", list(CASES))
def test_twin_rows_weighed_once_change_no_bit(monkeypatch, name):
    once, planted = _run(monkeypatch, name, weigh_all=False)
    every, _ = _run(monkeypatch, name, weigh_all=True)
    assert once.as_dict() == every.as_dict()
    assert once.rejected == (planted if name == "planted-redraws" else 0)
