"""A batch larger than `_BLOCK` rows is drawn, built and weighed in chunks
of `_BLOCK` rows: bit-identical to the whole-batch path, with a working set
that does not grow with the batch."""

import tracemalloc

import numpy as np
import pytest

from hodgecor import engine
from hodgecor.engine import (_Mixture, compile_tree, cyclic_polylog_series,
                             elliptic_correlator, multiple_green,
                             symmetric_form_word, CorrelatorRequest)
from hodgecor.exact_algebra import CyclicElement, point
from hodgecor.geometry import INFINITY, EllipticCurve, GreenSpec, RationalCurve
from hodgecor.tree_calculus import enumerate_trivalent_trees

P1 = RationalCurve()
DINF = GreenSpec.delta(INFINITY)
Z = 0.3 + 0.1j
BATCH = 1 << 14                 # the batch of every request below
PLANTED = (BATCH // 4 + 5, 3 * BATCH // 4 + 7)  # rows in chunks 2 and 4


def _li4(scheme):
    return cyclic_polylog_series([1.0, Z], [0, 3], samples=1 << 18, seed=31,
                                 scheme=scheme)


CASES = {
    "p1-k3-mc": lambda: _li4("mc"),
    "p1-k3-qmc": lambda: _li4("qmc"),
    "torus-ek11": lambda: elliptic_correlator(
        EllipticCurve(1j), symmetric_form_word(["o", "a"], [(0, 0), (1, 1)]),
        {"o": 0.0, "a": (1 + 1j) / 2}, samples=1 << 17, seed=32),
    "planted-redraws": lambda: multiple_green(
        P1, DINF, [0.0, 1.0, Z], samples=1 << 17, seed=33),
}


@pytest.mark.parametrize("name", list(CASES))
def test_chunks_match_whole_batches(monkeypatch, name):
    """Default results equal those with `_BLOCK` raised to the batch size,
    where each batch is drawn, built and weighed whole.  The planted case
    puts a row on an anchor in the 2nd and 4th chunk of every batch."""
    build = _Mixture.build
    sizes, seen = [], [0]

    def counted(self, U):
        A, B, order, twin = build(self, U)
        if len(U) >= 1024:              # first draws, not the redraws
            sizes.append(len(U))
            at = seen[0] % BATCH
            if name == "planted-redraws":
                at_row = np.argsort(order)  # a draw row's place in A
                for row in PLANTED:
                    if at <= row < at + len(U):
                        A[at_row[row - at], 0] = 0.0
            seen[0] += len(U)
        return A, B, order, twin

    monkeypatch.setattr(_Mixture, "build", counted)
    chunked = CASES[name]()
    assert set(sizes) == {engine._BLOCK}
    sizes.clear()
    monkeypatch.setattr(engine, "_BLOCK", BATCH)
    whole = CASES[name]()
    assert set(sizes) == {BATCH}
    assert chunked.as_dict() == whole.as_dict()
    if name == "planted-redraws":
        assert chunked.rejected == 2 * 8          # 2 rows in each of 8 batches


# Large-batch results pinned at the whole-batch path: value, stderr,
# samples, rejected, then (value, stderr) per tree.  50,000 samples give
# batches of 6,250 rows, chunked 4,096 + 2,154; 2^16 under qmc gives
# Sobol batches of 8,192 rows.
PINNED = {
    "odd-batch": (lambda: multiple_green(
        P1, GreenSpec.delta(2.0), [0.0, 1.0, Z, 1.4 + 0.6j], samples=50000,
        seed=25), (0.001486327207096511j, 5.52438492509957e-05, 100000, 0, [
            (0.0008369154221585523j, 4.3370244297767935e-05),
            (0.0006494117849379586j, 3.421848608016821e-05)])),
    "qmc-8192": (lambda: multiple_green(
        P1, DINF, [0.0, 1.0, Z, 1.4 + 0.6j], samples=1 << 16, seed=26,
        scheme="qmc"), (0.00708264036534744j, 2.1653074454702716e-05, 131072, 0, [
            (0.0037569071851586856j, 1.4632810866509574e-05),
            (0.0033257331801887545j, 1.5960466142499054e-05)])),
}
REL = 1e-12


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("name", list(PINNED))
def test_large_batches_pinned(name):
    run, (value, stderr, samples, rejected, per_tree) = PINNED[name]
    res = run()
    assert _close(res.value, value) and _close(res.stderr, stderr)
    assert (res.samples, res.rejected) == (samples, rejected)
    assert len(res.per_tree) == len(per_tree)
    for (_, v, e), (v0, e0) in zip(res.per_tree, per_tree):
        assert _close(v, v0) and _close(e, e0)


def _traced_peak(samples):
    tracemalloc.start()
    try:
        cyclic_polylog_series([1.0, Z], [0, 3], samples=samples, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_batch():
    """The li4 word's one tree at 2^19 samples (batches of 16,384 rows)
    peaks within 10% of its peak at 2^16 samples (batches of 8,192)."""
    cyclic_polylog_series([1.0, Z], [0, 3], samples=1 << 12, seed=3)
    small, large = _traced_peak(1 << 16), _traced_peak(1 << 19)
    assert large <= 1.1 * small, (small, large)


def _li4_mixture():
    labels = {"a": 1.0, "z": Z, "o": 0.0}
    word = CyclicElement.from_word([point(x) for x in "azooo"])
    req = CorrelatorRequest(P1, DINF, word, labels)
    (cw,) = word.terms
    for forest in enumerate_trivalent_trees(cw):
        comp = compile_tree(forest.trees[0], req)
        if comp is not None:
            return _Mixture(P1, comp)


def test_selector_on_the_cumulative_weights():
    """`_pick` gives searchsorted's component, capped at the last one, for
    u exactly on each cumulative-weight boundary and one ulp either side."""
    mix = _li4_mixture()
    cum = mix._cum
    assert len(cum) > 10
    us, on = [0.0, np.nextafter(1.0, 0.0)], 0
    for c in cum:
        u = c / cum[-1]
        for _ in range(4):      # the u whose u * cum[-1] rounds to c
            if u * cum[-1] == c:
                on += 1
                break
            u = np.nextafter(u, np.inf if u * cum[-1] < c else -np.inf)
        us += [np.nextafter(u, -np.inf), u, np.nextafter(u, np.inf)]
    assert on == len(cum)
    u0 = np.array(us)
    want = np.minimum(np.searchsorted(cum, u0 * cum[-1], side="right"),
                      len(cum) - 1)
    assert np.array_equal(mix._pick(u0), want)
