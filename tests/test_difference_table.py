"""Each Monte Carlo chunk side's differences are taken once, in one table
(`engine._differences`) that the singular mask, the mixture's disk factors
and the Green kernel all read.  The torus kernel behind it is built from
S = 2 sin(pi z) and C = 2 cos(pi z) alone, is exactly even in g and odd in
dg/dz, and matches the e-based product in extended precision."""

import math

import numpy as np
import pytest

from hodgecor.engine import (CorrelatorRequest, _MAX_SAMPLES, _Mixture,
                             _differences, _singular_mask, _validate_request,
                             compile_tree, cyclic_polylog_series,
                             elliptic_correlator, symmetric_form_word)
from hodgecor.exact_algebra import CyclicElement, point
from hodgecor.geometry import (INFINITY, EllipticCurve, GreenSpec,
                               RationalCurve, is_infinity)
from hodgecor.tree_calculus import enumerate_trivalent_trees

PI = 4 * np.arctan(np.longdouble(1))
FRAMES = (1j, 0.3 + 1.1j, 3 + 0.5j, 5j, 150j)
W11 = symmetric_form_word(["o", "a"], [(0, 0), (1, 1)])


def _e_based_reference(curve, z, nmax=40):
    """(log|theta_1/eta|, theta_1'/theta_1) at the curve's reduced tau' and
    the float64 points z, in extended precision, from the e-based product:
    e = exp(2 pi i z), t_n = 1 - q^n (e + 1/e) + q^(2n),
    theta_1 / eta = 2 q^(1/12) sin(pi z) prod t_n and
    theta_1' / theta_1 = pi cot(pi z) + 2 pi i (1/e - e) sum q^n / t_n."""
    t = curve._frame[1]
    q = np.exp(2j * PI * (np.clongdouble(t.real) + 1j * np.longdouble(t.imag)))
    zl = z.astype(np.clongdouble)
    e = np.exp(2j * PI * zl)
    c = e + 1 / e
    prod = 2 * np.sin(PI * zl)
    acc = np.zeros_like(zl)
    qn = np.clongdouble(1)
    for _ in range(1, nmax):
        qn = qn * q
        tn = 1 - qn * c + qn * qn
        prod = prod * tn
        acc = acc + qn / tn
    log_ratio = np.log(np.abs(prod)) - PI * np.longdouble(t.imag) / 6
    dlog = (PI * np.cos(PI * zl) / np.sin(PI * zl)
            + 2j * PI * (1 / e - e) * acc)
    return log_ratio, dlog


def _cell_points(curve, n, seed):
    """n uniform points of the centred cell, plus points 1e-9 from the one
    lattice point it holds and next to its corners."""
    w1, t = curve._frame
    rng = np.random.default_rng(seed)
    z = (rng.random(n) - 0.5 + (rng.random(n) - 0.5) * t) * w1
    edge = 0.5 - 1e-9
    extra = np.array([1e-9, 1e-9j, (0.6 - 0.8j) * 1e-9,
                      (edge + edge * t), (-edge + edge * t)]) * w1
    return curve._centred(np.concatenate([z, extra]))


@pytest.mark.parametrize("tau", FRAMES)
def test_theta_quotient_matches_extended_precision(tau):
    """Within 1e-14 of the extended-precision e-based product on log|theta_1
    / eta|, and 1e-14 (1 + |dlog|) on theta_1'/theta_1.  The log is
    log|S P| - pi Im tau' / 6, two float64 numbers near pi Im tau' / 6 that
    cancel on a tall frame (78.5 at 150i, where both this kernel and the
    e-based one in float64 miss by up to 3.8e-14), so its bound is taken in
    units of max(1, pi Im tau' / 6)."""
    curve = EllipticCurve(tau)
    z = _cell_points(curve, 2000, 9)
    log_ratio, dlog = curve.theta_quotient(z)
    ref_log, ref_dlog = _e_based_reference(curve, z)
    scale = max(1.0, math.pi * curve._frame[1].imag / 6)
    assert np.max(np.abs(log_ratio - ref_log)).astype(float) <= 1e-14 * scale
    err = np.abs(dlog - ref_dlog) / (1 + np.abs(ref_dlog))
    assert np.max(err).astype(float) <= 1e-14


@pytest.mark.parametrize("tau", FRAMES + (0.5 + 0.006j,))
def test_green_is_exactly_even(tau):
    """g(-z) == g(z) and dg(-z) == -dg(z) bit for bit, at points spread over
    several cells and next to the lattice."""
    curve = EllipticCurve(tau)
    rng = np.random.default_rng(11)
    z = (rng.random(3000) * 6 - 3) + (rng.random(3000) * 6 - 3) * tau
    z = np.concatenate([z, 1e-9 * np.exp(2j * np.pi * rng.random(50)) + 1,
                        1e-9 * np.exp(2j * np.pi * rng.random(50)) + tau])
    g, dg = curve.green_pair(z)
    g_neg, dg_neg = curve.green_pair(-z)
    assert np.array_equal(g_neg, g)
    assert np.array_equal(dg_neg, -dg)


def _chunk_cases():
    Z = 0.3 + 0.1j
    labels = {"o": 0.0, "a": 0.21 + 0.33j, "b": 0.55 + 0.62j, "c": 0.8 + 0.1j}
    word = CyclicElement.from_word([point(x) for x in "oabc"])
    skew = EllipticCurve(0.3 + 1.1j)
    yield "torus-volume", CorrelatorRequest(skew, GreenSpec.volume(), word,
                                            labels)
    yield "torus-delta", CorrelatorRequest(skew, GreenSpec.delta(0.4 + 0.9j),
                                           word, labels)
    yield "p1-finite-base", CorrelatorRequest(
        RationalCurve(), GreenSpec.delta(2.0),
        CyclicElement.from_word([point(x) for x in "oizw"]),
        {"o": 0.0, "i": INFINITY, "z": Z, "w": 1.4 + 0.6j})
    yield "p1-base-at-infinity", CorrelatorRequest(
        RationalCurve(), GreenSpec.delta(INFINITY), word,
        {"o": 0.0, "a": 1.0, "b": Z, "c": -0.7 + 0.4j})


@pytest.mark.parametrize("req", [c[1] for c in _chunk_cases()],
                         ids=[c[0] for c in _chunk_cases()])
def test_table_matches_separation(req):
    """On one 4,096-row chunk with rows planted on singularities, the
    singular mask and every disk factor's distance read from the table equal
    the values `separation` gives, bit for bit, and the density read from
    the table equals the one that builds its own."""
    curve = req.curve
    checked = 0
    for cw in req.word.terms:
        for i, forest in enumerate(enumerate_trivalent_trees(cw)):
            comp = compile_tree(forest.trees[0], req)
            if comp is None or not comp.k:
                continue
            mix = _Mixture(curve, comp)
            U = np.random.default_rng([7, i]).random((4096, mix.uniform_dim()))
            period = 1 if isinstance(curve, EllipticCurve) else 0
            for pts in mix.build(U)[:2]:
                for r, (v, c) in enumerate(
                        (v, c) for v in range(comp.k) for c in comp.anchors[v]):
                    pts[50 * r, v] = c + period + 3e-10j
                for r, (v, w) in enumerate(comp.pairs):
                    pts[50 * r + 25, v] = pts[50 * r + 25, w] + 2e-10
                tab = _differences(comp, curve, pts)
                bad = np.zeros(len(pts), dtype=bool)
                for v, cs in enumerate(comp.anchors):
                    for c in cs:
                        bad |= curve.separation(pts[:, v] - c) < 1e-9
                for v, w in comp.pairs:
                    bad |= curve.separation(pts[:, v] - pts[:, w]) < 1e-9
                assert bad.any() and not bad.all()
                assert np.array_equal(_singular_mask(comp, curve, pts, tab), bad)
                disks = [key for key in mix._factors if key[0] != "g"]
                assert set(disks) <= set(tab.near)
                for tag, v, x in disks:
                    d = pts[:, v] - (pts[:, x] if tag == "e" else x)
                    assert np.array_equal(tab.near[tag, v, x],
                                          curve.separation(d))
                assert np.array_equal(mix.density(pts, tab), mix.density(pts))
                checked += 1
    assert checked


def test_table_holds_each_difference_once():
    """The edge entries are the Green edges' differences as the curve reduces
    them, first end minus second; a fixed end at infinity has no disk."""
    req = next(c[1] for c in _chunk_cases() if c[0] == "p1-finite-base")
    curve = req.curve
    for cw in req.word.terms:
        for forest in enumerate_trivalent_trees(cw):
            comp = compile_tree(forest.trees[0], req)
            if comp is None or not comp.k:
                continue
            mix = _Mixture(curve, comp)
            pts, _ = mix.draw(np.random.default_rng(3), 64)
            tab = _differences(comp, curve, pts)
            assert set(tab.edge) == set(comp.greens)
            for e, ends in comp.greens.items():
                x, y = (pts[:, d[1]] if d[0] == "v" else complex(d[1])
                        for d in ends)
                d, dist = tab.edge[e]
                assert np.array_equal(d, x - y)
                assert np.array_equal(dist, np.abs(x - y))
            assert all(not is_infinity(key[2]) for key in tab.near
                       if key[0] == "c")


def test_a_frame_far_from_reduced_draws_the_reduced_points():
    """tau = 1e17+i and 1e300+i name the lattice of tau = i.  Global points
    are drawn in the reduced frame, so EK(1,1) at a = (1+i)/2 reads the tau = i
    value and stderr bit for bit (drawn as u1 + u2 tau, u1 was rounded away:
    118 stderr off)."""
    def run(tau):
        res = elliptic_correlator(EllipticCurve(tau), W11,
                                  {"o": 0.0, "a": (1 + 1j) / 2},
                                  samples=1 << 17, seed=3)
        return res.value, res.stderr
    square = run(1j)
    assert run(1e17 + 1j) == square
    assert run(1e300 + 1j) == square


def test_samples_above_two_to_the_forty_are_refused():
    """Validation alone: no request here is run."""
    req = CorrelatorRequest(RationalCurve(), GreenSpec.delta(INFINITY),
                            CyclicElement.from_word([point("0"), point("1"),
                                                     point("0.3+0.1i")]))
    req.samples = _MAX_SAMPLES
    _validate_request(req)
    for samples in (_MAX_SAMPLES + 1, 99999999999999999999):
        req.samples = samples
        with pytest.raises(ValueError, match=r"at most 2\^40"):
            _validate_request(req)


def _plant(monkeypatch, side, rows):
    """Put vertex 0 on its first anchor in the given draw rows of every
    first draw, in B alone where B is not A (`side` "B") or in both."""
    build = _Mixture.build

    def planted(self, U):
        A, B, order, twin = build(self, U)
        if len(U) >= 1024:
            anchor = next(c for kind, v, c in self.comps
                          if kind == "pt" and v == 0)
            at = np.argsort(order)[rows]
            at = at[at >= twin]
            B[at, 0] = anchor
            if side == "both":
                A[at, 0] = anchor
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", planted)


def test_rows_singular_in_b_alone_are_redrawn_and_a_reweighed(monkeypatch):
    """A row singular in B alone is redrawn from its own generator, as when
    A is singular there too, so both runs give the same result bit for bit:
    the A weight of the redrawn row is the one of its new point."""
    results = []
    for side in ("B", "both"):
        _plant(monkeypatch, side, slice(3, None, 450))
        res = cyclic_polylog_series([1.0, 0.3 + 0.1j], [0, 2],
                                    samples=1 << 14, seed=32)
        monkeypatch.undo()
        results.append(res)
    assert results[0].rejected > 0
    assert results[0].as_dict() == results[1].as_dict()
