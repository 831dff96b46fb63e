"""Monte Carlo evaluation of tree-summed correlator integrals.

For each decorated plane trivalent tree the integrand is assembled from the
alternation form over the Green functions of the non-special edges, wedged
with the 1-forms of the special (form-decorated) edges, carrying the sign of
the canonical orientation.  The sum over trees is integrated over one copy
of the curve per internal vertex by importance-sampled Monte Carlo.  Only
the top-degree part is integrated (for k internal vertices and no special
edges, the top part of omega_2k), so each internal vertex takes exactly one
dz and one dz-bar factor, each from a different incident edge; the one Green
edge that takes neither is the undifferentiated G_j.  For a fixed j there
is exactly one way to hand the other Green edges to the vertices, each
vertex receiving one per free slot: every edge goes to its end nearer G_j
(`_slot_terms`).  The monomials of j then factor by vertex: `compile_tree`
emits one term per j, c_j G_j times one block per vertex, the 2x2
determinant d G_a db G_b - d G_b db G_a of the two edges a vertex
receives, or a single d G / db G where a form holds the other slot.  A
tree with m+1 Green edges has m+1 terms.

Normalization.  `raw` returns the plain tree sum of honest integrals (top
form against the standard orientation of the product).  `2pii` multiplies by

    (2 pi i)^(-#green edges) * (-4i)^kappa * (-1)^(kappa(kappa-1)/2),

where kappa counts internal vertices all of whose edges carry Green
functions.  The per-vertex factor is the bridge between the literal
alternation form and the per-vertex Feynman normalization the reference
values use; it is pinned by four independent closed-form anchors (the
Bloch-Wigner tripod, the classical polylogarithm caterpillars, and the
depth-one Eisenstein-Kronecker series at staggered and adjacent form
placements), see the acceptance tests.  `star` applies binomial omega-star
weights on top of `2pii`.

Sampling.  Each tree runs at least 8 batches, each drawn from its own
generator, and takes its stderr from the spread of the batch means.  Small
batches are stacked into blocks of at most `_BLOCK` rows; a larger batch is
streamed in `_BLOCK`-row chunks, each weighed once, as soon as it is drawn,
so memory does not grow with the batch.  A chunk is weighed in
component-grouped order (`_Mixture.build`), and its weights are put back in
draw order before the batch means.  Its global-component rows lead, and
their antithetic twin is the row itself, so they are weighed once.  Each
chunk side (A, then B where it is not A) has its differences taken once, in
one table (`_differences`): every Green edge's difference as the curve
reduces it, with its distance, and under a delta measure at a finite base
each vertex's difference from the base.  The singular mask, the mixture's
disk factors and the Green kernel all read that table, and only one side's
table is alive at a time.  A row on a Green-function singularity is redrawn
from a generator keyed by its batch and its row in draw order, so neither
the blocking, the chunking, the grouping nor another row changes a value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact_algebra import (CyclicElement, antihol_form, hol_form, perm_parity,
                            point)
from .geometry import (EllipticCurve, GreenSpec, RationalCurve, is_infinity,
                       INFINITY, levin_polylog, parse_point)
from .tree_calculus import PlaneTree, enumerate_trivalent_trees

__all__ = [
    "CorrelatorRequest", "CorrelatorResult", "correlate", "multiple_green",
    "cyclic_polylog_series", "cyclic_polylog_table", "elliptic_correlator",
    "symmetric_form_word", "compile_tree", "integrand",
]


@dataclass
class CorrelatorRequest:
    curve: object
    green: GreenSpec
    word: CyclicElement
    points: dict = field(default_factory=dict)   # S-label -> complex point
    samples: int = 1 << 18
    seed: int = 0
    scheme: str = "mc"                           # 'mc' | 'qmc'
    normalization: str = "2pii"                  # 'raw' | '2pii' | 'star'

    def resolve_point(self, label: str):
        if label in self.points:
            return self.points[label]
        try:
            return parse_point(label)
        except ValueError as exc:
            raise ValueError(f"cannot resolve point label {label!r} ({exc}); "
                             f"pass it in request.points") from None


@dataclass
class CorrelatorResult:
    value: complex
    stderr: float
    samples: int
    per_tree: list
    rejected: int
    metadata: dict

    def as_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "stderr": self.stderr,
            "samples": self.samples,
            "rejected": self.rejected,
            "per_tree": [
                {"tree": t, "value": {"re": v.real, "im": v.imag}, "stderr": e}
                for (t, v, e) in self.per_tree],
            "metadata": self.metadata,
        }


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

@dataclass(slots=True)
class _CompiledTree:
    """Flattened integrand template for one decorated tree.

    `terms` lists (c_j, G_j edge, blocks) from `_slot_terms`, one per
    undifferentiated Green edge; `need` gives each Green edge's
    (need_dx, need_dy) derivative flags.  `anchors[v]` lists the distinct
    finite points where vertex v's Green functions blow up and `pairs` the
    internal edges (v, w): the sampler centres its components there, and
    `_singular_mask` rejects rows on them.  `base` is the base point of a
    delta measure when it is finite, else None.  `spanning[r]` lists the
    parent links (child, parent) of the internal edges walked from vertex
    r: an edge's parent end is its end nearer r, where `_slot_terms` hands
    it when G_j ends at r, and the sampler hangs its chains on them.
    """

    tree: PlaneTree
    k: int
    greens: dict
    green_ids: list
    specials: list
    terms: list
    need: dict
    sign: int
    anchors: list
    pairs: list
    spanning: list
    kappa_vertices: int
    base: complex | None


def _spanning(adj, root, k):
    """Parent links (child, parent) of a BFS spanning tree of the
    internal-edge graph, parents first and children ascending.  A tree's
    internal edges all carry Green functions (forms sit on leaves) and
    connect its k internal vertices, so the BFS reaches every one."""
    parents = [None] * k
    order, seen = [root], {root}
    for u in order:                     # grows while walked: a FIFO queue
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                parents[w] = u
                order.append(w)
    return tuple((v, parents[v]) for v in order[1:])


def _slot_terms(k, greens, green_ids, fixed_slots, sign, star, spanning):
    """Terms (coeff, G_j edge, blocks) of the top-degree part of omega_m
    over the m+1 Green edges, one per undifferentiated edge G_j, sorted by
    j, and the (need_dx, need_dy) flags of each Green edge: which ends'
    derivatives some term uses.

    Vertex v owns slot 2v (its dz) and slot 2v+1 (its dz-bar); the slots
    not pre-filled by a form-decorated edge are its free slots.  A monomial
    phi_j d phi_A db phi_B of omega_m is top-degree when every free slot
    holds a distinct incident Green edge, so the m edges other than j go to
    one of their ends each, vertex v receiving as many as it has free
    slots.  Each goes to its end nearer G_j: its one internal end, or its
    parent end in `spanning[r]`, the walk from an internal end r of G_j.
    Vertex v meets free[v] + 1 Green edges (a form letter fills one slot;
    equal letters are pruned) and gives up one, G_j or its edge toward r,
    so it receives free[v].  No other hand-out does: from the far end of
    the walk up, a vertex's other Green edges can go nowhere else and fill
    its free slots, so its edge toward r goes to the parent.  What is left
    is which of its two received edges a two-slot vertex puts on dz.
    Swapping them swaps two slots of the wedge, so it flips the sign, and
    |A| (k minus the dz forms) does not move.  So the 2^k' monomials of j
    sum to one product of blocks (v, a, b), one per vertex with a free
    slot: a the edge on its dz slot, b the edge on its dz-bar slot, None
    where a form holds the slot.  When both are edges, a comes before b in
    green_ids and the block is the 2x2 determinant
    d_v G_a db_v G_b - d_v G_b db_v G_a.  The coefficient is that of the
    monomial in which each such a takes its dz:
    (-1)^|A| |A|! (m-|A|)! sgn([j]+A+B) / (m+1)!, times C(m, |A|) for the
    star weights, times the sign that sorts the slots of its wedge (A, then
    B, then the form edges) and the tree's `sign`.
    """
    m = len(green_ids) - 1
    fact = math.factorial
    scale = [float(Fraction((-1) ** a * fact(a) * fact(m - a), fact(m + 1))
                   * (math.comb(m, a) if star else 1)) for a in range(m + 1)]
    free = [[s for s in (2 * v, 2 * v + 1) if s not in fixed_slots]
            for v in range(k)]
    # ends[g]: the (position, vertex) of Green edge g's internal ends
    ends = [[(p, d[1]) for p, d in enumerate(greens[e]) if d[0] == "v"]
            for e in green_ids]
    need = [[False, False] for _ in range(m + 1)]
    terms = []
    for j, ej in enumerate(ends):
        up = dict(spanning[ej[0][1]]) if ej else {}     # child -> parent
        got = [[] for _ in range(k)]        # received Green indices, ascending
        for g, eg in enumerate(ends):
            if g != j:
                # the end nearer G_j: the only one, or the parent one
                p, v = eg[-1] if up.get(eg[0][1]) == eg[-1][1] else eg[0]
                got[v].append(g)
                need[g][p] = True
        slot, blocks = {}, []
        for v in range(k):
            if free[v]:
                on = dict(zip(free[v], got[v]))
                slot.update((g, s) for s, g in on.items())
                blocks.append((v,) + tuple(
                    green_ids[on[s]] if s in on else None
                    for s in (2 * v, 2 * v + 1)))
        A = sorted(g for g, s in slot.items() if s % 2 == 0)
        AB = A + sorted(g for g, s in slot.items() if s % 2)
        coeff = scale[len(A)] * perm_parity([j] + AB, range(m + 1))
        wsign = perm_parity([slot[g] for g in AB] + fixed_slots, range(2 * k))
        terms.append((coeff * wsign * sign, green_ids[j], tuple(blocks)))
    return terms, {e: tuple(need[g]) for g, e in enumerate(green_ids)}


def compile_tree(tree: PlaneTree, req: CorrelatorRequest):
    """Build the flattened integrand template, or None if the tree's
    integral vanishes: a vertex with two equal leaf letters, or, under the
    volume measure, a vertex with two form letters.  The one Green edge of
    such a vertex x is G_j or differentiated only at its other end y, so
    integrating over x first gives the zero-mean g's integral against the
    volume form (or its y-derivative): 0.  Under a delta measure at a it
    is -Im tau g(a - y), and no such tree is dropped.

    One pass over the edges splits them into Green edges and form edges,
    each form fixing its slot at its vertex, and collects each vertex's leaf
    letters, its anchors and the internal edges.  A vertex's anchors are the
    distinct finite points its Green functions blow up at: the decoration
    points at the other end of its Green edges and a finite delta base.
    Distinct labels are distinct points (`_validate_request`), so pruning
    compares letters.  A kept tree's internal edges are then walked once
    from each vertex (`_spanning`), for `_slot_terms` and the sampler."""
    letters = tree.letters()
    # internal vertices in canonical order
    nodes = [] if tree.n == 1 else [("root",)] + list(tree.intervals)
    var_of = {("node", b): i for i, b in enumerate(nodes)}
    k = len(nodes)
    base = req.green.base if req.green.kind == "delta" else None
    base = None if base is None or is_infinity(base) else complex(base)

    greens, specials, fixed_slots, pairs = {}, [], [], []
    leaf_letters = [[] for _ in range(k)]
    anchors = [[] for _ in range(k)]
    for e, ends in tree.edge_ends().items():
        vs = [var_of[end] for end in ends if end[0] == "node"]
        ltr = letters[e[1]] if e[0] == "leaf" else None
        if ltr is not None and vs:
            leaf_letters[vs[0]].append(ltr)
        if ltr is not None and ltr.kind != "s":         # a form edge
            hol = ltr.kind == "dz"
            specials.append((e, vs[0], +1 if hol else -1))
            fixed_slots.append(2 * vs[0] + (0 if hol else 1))
            continue
        greens[e] = tuple(("v", var_of[end]) if end[0] == "node"
                          else ("c", req.resolve_point(letters[end[1]].label))
                          for end in ends)
        if len(vs) == 2:
            pairs.append(tuple(vs))
        points = [complex(d[1]) for d in greens[e]
                  if d[0] == "c" and not is_infinity(d[1])]
        for v in vs:
            for c in points + ([] if base is None else [base]):
                if c not in anchors[v]:
                    anchors[v].append(c)

    prune_forms = req.green.kind == "volume"
    for here in leaf_letters:
        forms = sum(ltr.kind != "s" for ltr in here)
        if len(set(here)) < len(here) or (prune_forms and forms >= 2):
            return None

    adj = [[] for _ in range(k)]
    for v, w in pairs:
        adj[v].append(w)
        adj[w].append(v)
    spanning = [_spanning(adj, r, k) for r in range(k)]
    green_ids = list(greens)
    sign = perm_parity(green_ids + [e for e, _, _ in specials], tree.edges())
    # kappa = internal vertices with no incident form edge
    kappa_vertices = k - len({v for _, v, _ in specials})
    terms, need = _slot_terms(k, greens, green_ids, fixed_slots, sign,
                              req.normalization == "star", spanning)
    return _CompiledTree(tree, k, greens, green_ids, specials, terms, need,
                         sign, anchors, pairs, spanning, kappa_vertices, base)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

# mixture weight of the global component; the others share the rest equally
_GLOB_W = 0.25


def _polar(r, th):
    """r exp(i th) for real r and th, written as r cos th + i r sin th: the
    same bits as `r * np.exp(1j * th)`, without the complex exp."""
    z = np.empty(len(r), dtype=complex)
    z.real = r * np.cos(th)
    z.imag = r * np.sin(th)
    return z


class _Mixture:
    """Tree-aware importance mixture with antithetic polar pairs.

    Components: a global draw for all variables; per (variable, anchor)
    polar disks of radius rho with density ~ 1/r; per internal edge the same
    around the partner variable; and chain components that hang every
    variable off a spanning tree of the internal edges by successive polar
    offsets (rooted at an anchor or at a global draw).  The chains dominate
    the multi-singularity corners where several Green-function arguments
    degenerate at once.  Densities are exact, so the weights are unbiased
    for any integrable integrand.

    Many components share factors: a chain's edges are the pair components'
    edges, and its anchored root is a pt component's disk.  Each component
    is therefore a tuple of indices into one table of distinct factors (a
    polar disk around an anchor or along an edge, or a global column), and
    `density` evaluates each factor once per call.
    """

    def __init__(self, curve, comp: _CompiledTree):
        self.curve = curve
        self._comp = comp
        self.k = comp.k
        self.rho = curve.default_rho
        comps = [("glob", None, None)]
        for v in range(comp.k):
            for c in comp.anchors[v]:
                comps.append(("pt", v, c))
        for v, w in comp.pairs:
            comps.append(("pair", v, w))
            comps.append(("pair", w, v))
        # the chains of one spanning tree are consecutive components
        # lo..hi-1: the unanchored one, then one per anchor of the root
        chains = []
        if comp.k > 1:
            for root, parents in enumerate(comp.spanning):
                lo = len(comps)
                comps.append(("chain", (root, parents), None))
                for c in comp.anchors[root]:
                    comps.append(("chain", (root, parents), c))
                chains.append((lo, len(comps), parents))
        self.comps = comps
        self._chains = chains
        # keep[v, i]: component i leaves column v at its global point; it
        # draws the other cells of its rows itself
        keep = np.ones((comp.k, len(comps)), dtype=bool)
        for i, (kind, v, c) in enumerate(comps[1:], 1):
            if kind == "chain":
                keep[:, i] = False
                keep[v[0], i] = c is None
            else:
                keep[v, i] = False
        # the components that keep column v global, as runs lo..hi-1 of
        # consecutive ones: `build` fills the column through their slices
        self._global_runs = [
            np.flatnonzero(np.diff(np.concatenate(([0], kv, [0])))).reshape(-1, 2)
            for kv in keep.astype(np.int8)]
        wts = np.full(len(comps), (1.0 - _GLOB_W) / max(1, len(comps) - 1))
        wts[0] = _GLOB_W if len(comps) > 1 else 1.0
        self.wts = wts
        self._cum = np.cumsum(wts)
        # Factor keys are tagged: ("g", v) the global density of column v,
        # ("c", v, c) the disk around anchor c, ("e", v, w) with v < w the
        # disk along an edge (the separation is symmetric).  The tags keep a
        # vertex index from aliasing an anchor (1 == 1+0j, equal hashes).
        index = {}

        def fac(key):
            return index.setdefault(key, len(index))

        def edge(v, w):
            return fac(("e", min(v, w), max(v, w)))

        plan = []
        for kind, v, c in comps[1:]:
            if kind == "pt":
                plan.append((v, (fac(("c", v, c)),)))
            elif kind == "pair":
                plan.append((v, (edge(v, c),)))
            else:
                root, parents = v
                head = fac(("g", root) if c is None else ("c", root, c))
                plan.append((None, (head,) + tuple(edge(ch, pa)
                                                   for ch, pa in parents)))
        # per non-global component: (v, (factor,)) for a disk at v times the
        # global law of the other variables, or (None, factors) for a chain
        self._plan = plan
        self._factors = list(index)

    def _q_polar(self, r):
        """Density of a polar disk of radius rho, at distance r from its
        centre."""
        return np.where(r < self.rho,
                        1.0 / (2 * np.pi * self.rho * np.maximum(r, 1e-300)), 0.0)

    def uniform_dim(self) -> int:
        # component selector + 2 uniforms per variable + polar (r, theta)
        return 1 + 2 * self.k + 2

    def _pick(self, u0):
        """Component index of each row from its selector uniform: the count
        of cumulative weights at or below u0 times the total, that is
        `searchsorted(cum, u0 * cum[-1], side="right")` capped at the last
        component.  The index is 16-bit, so `build`'s stable sort of it is
        a radix sort."""
        x = u0 * self._cum[-1]
        ci = np.zeros(len(x), dtype=np.uint16)
        for c in self._cum[:-1]:
            ci += x >= c
        return ci

    def build(self, U: np.ndarray):
        """Map a uniform matrix (n, uniform_dim) to antithetic point pairs,
        column-major so each vertex's column is contiguous, with the rows
        grouped by component: returns (A, B, order, twin), where row r of A
        and B comes from row order[r] of U.  The grouping is a stable sort
        of `_pick`'s index, so rows keep their draw order within a
        component, and each component writes its cells through one slice,
        gathering from U only the columns it reads.  The global component's
        rows lead; `build` never moves them, so B is A on the first `twin`
        rows, and a caller weighs those rows once."""
        n = U.shape[0]
        k = self.k
        ci = self._pick(U[:, 0])
        order = np.argsort(ci, kind="stable")
        at = np.searchsorted(ci[order], np.arange(len(self.comps) + 1))
        A = np.empty((n, k), dtype=complex, order="F")
        for v, runs in enumerate(self._global_runs):
            spans = [(lo, hi) for lo, hi in at[runs] if lo < hi]
            if not spans:
                continue
            src = np.concatenate([order[lo:hi] for lo, hi in spans])
            z = self.curve.global_point(U[src, 1 + 2 * v], U[src, 2 + 2 * v])
            o = 0
            for lo, hi in spans:
                A[lo:hi, v] = z[o:o + hi - lo]
                o += hi - lo
        B = A.copy(order="F")
        for i, (kind, v, c) in enumerate(self.comps[1:], 1):
            # an unanchored chain's root stays global; an empty component
            # writes nothing
            if c is None or at[i] == at[i + 1]:
                continue
            rows = slice(at[i], at[i + 1])
            src = order[rows]
            o = _polar(self.rho * U[src, 1 + 2 * k],
                       2 * np.pi * U[src, 2 + 2 * k])
            if kind == "pt":
                A[rows, v] = c + o
                B[rows, v] = c - o
            elif kind == "pair":
                A[rows, v] = A[rows, c] + o
                B[rows, v] = B[rows, c] - o
            else:               # an anchored chain places its root
                A[rows, v[0]] = c + o
                B[rows, v[0]] = c - o
        # the chains of one spanning tree hang the other variables off their
        # roots together, by per-variable polar offsets recycled from the
        # uniforms that would otherwise drive the global coordinates
        for lo, hi, parents in self._chains:
            if at[lo] == at[hi]:
                continue
            rows = slice(at[lo], at[hi])
            src = order[rows]
            for child, parent in parents:
                o = _polar(self.rho * U[src, 1 + 2 * child],
                           2 * np.pi * U[src, 2 + 2 * child])
                A[rows, child] = A[rows, parent] + o
                B[rows, child] = B[rows, parent] - o
        return A, B, order, int(at[1])

    def draw(self, rng, n):
        A, B, _, _ = self.build(rng.random((n, self.uniform_dim())))
        return A, B

    def density(self, pts, tab=None):
        """Mixture density of the rows of pts, its disk factors read from
        their difference table `tab` (`_differences`, built here if not
        given)."""
        if tab is None:
            tab = _differences(self._comp, self.curve, pts)
        qg = self.curve.global_density(pts)
        prod_g = qg.prod(axis=1)
        f = [qg[:, key[1]] if key[0] == "g" else self._q_polar(tab.near[key])
             for key in self._factors]
        q = self.wts[0] * prod_g
        lead = {}       # the non-global weights are equal, so one per vertex
        for w, (v, idx) in zip(self.wts[1:], self._plan):
            if v is not None:
                if v not in lead:
                    lead[v] = w * prod_g / qg[:, v]
                q += lead[v] * f[idx[0]]
            else:
                dens = f[idx[0]] * f[idx[1]]
                for j in idx[2:]:
                    dens *= f[j]
                dens *= w
                q += dens
        return q


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

# rows per batch, before the at-least-8-batches rule
_BATCH = 1 << 14
# rows per block and per chunk: consecutive whole batches of at most this
# size are stacked into one block for the sampler and the integrand; a larger
# batch is its own block, drawn, built and weighed in chunks of this size
_BLOCK = 1 << 12
# points closer than this (by the curve's `separation`, the distance of its
# `difference` law) are one point
_COINCIDENT = 1e-9
# the largest sample count a request may ask for: 2^40 rows take about 19
# hours at a million rows a second, and the per-block weights of a batch
# that size would not fit in memory
_MAX_SAMPLES = 1 << 40


def _coord(desc, pts):
    """Position of an edge end over the rows of pts: an internal-vertex
    column, or a fixed point as one complex scalar, broadcast by the Green
    kernel."""
    if desc[0] == "v":
        return pts[:, desc[1]]
    return complex(desc[1])


@dataclass(slots=True)
class _Differences:
    """The differences of one set of sample rows, each taken, reduced and
    measured once by the curve's `difference` law, for every reader:

    - `edge[e]`: the (difference, distance) pair of Green edge e, its first
      end minus its second;
    - `base[end]`: under a delta measure at a finite base a, the pair of
      each Green-edge end minus a (an array per vertex, a scalar per fixed
      point);
    - `near[key]`: the distance array of each disk key of `_Mixture`,
      ("c", v, c) for a vertex v and one of its anchors c, ("e", v, w) with
      v < w for an internal edge; the arrays are those of `edge` and `base`.

    The Green kernel reads `edge` and `base`; the singular mask and the
    mixture's disk factors read `near`."""

    edge: dict
    base: dict
    near: dict


def _differences(comp: _CompiledTree, curve, pts):
    """The `_Differences` of the rows of pts for the tree's Green edges."""
    diff = curve.difference
    edge, base, near = {}, {}, {}
    for e, (x, y) in comp.greens.items():
        edge[e] = diff(_coord(x, pts) - _coord(y, pts))
        dist = edge[e][1]
        if x[0] == y[0] == "v":
            near["e", min(x[1], y[1]), max(x[1], y[1])] = dist
            continue
        (_, v), (_, c) = (x, y) if x[0] == "v" else (y, x)
        if not is_infinity(c):
            near["c", v, complex(c)] = dist
    if comp.base is not None:
        a = comp.base
        for ends in comp.greens.values():
            for end in ends:
                if end not in base:
                    base[end] = diff(_coord(end, pts) - a)
                    if end[0] == "v":
                        near["c", end[1], a] = base[end][1]
    return _Differences(edge, base, near)


def _block(block, der):
    """Value of a vertex block (v, a, b) of `_slot_terms` from the Green
    derivatives der[edge, v]: d_v G_a, or db_v G_b = conj d_v G_b, or for
    two edges Im(d_v G_a conj d_v G_b), the 2x2 determinant
    d_v G_a db_v G_b - d_v G_b db_v G_a over 2i (G is real)."""
    v, a, b = block
    if b is None:
        return der[a, v]
    if a is None:
        return np.conj(der[b, v])
    da, db = der[a, v], der[b, v]
    return da.imag * db.real - da.real * db.imag


def integrand(comp: _CompiledTree, req: CorrelatorRequest, pts: np.ndarray,
              tab=None):
    """Top-form coefficient times the product measure factor (-2i)^k,
    evaluated at an (N, k) array of internal-vertex positions: each term is
    c_j G_j times its vertex blocks, each distinct block evaluated once.
    The two-slot vertices are the kappa ones, so the 2i each determinant
    block leaves out is applied once, as (2i)^kappa.  The Green kernel
    reads the rows' difference table `tab` (`_differences`, built here if
    not given) and empties it as it goes, so each edge's difference is
    freed once its Green values are in: a caller reads the mask and the
    density from the table first."""
    if tab is None:
        tab = _differences(comp, req.curve, pts)
    tab.near.clear()
    green, edge, base = req.curve.green_from, tab.edge, tab.base
    gval, der = {}, {}
    for e, ends in comp.greens.items():
        vx, vy = comp.need[e]
        gval[e], dx, dy = green(req.green, edge.pop(e), base.get(ends[0]),
                                base.get(ends[1]), vx, vy)
        if vx:
            der[e, ends[0][1]] = dx
        if vy:
            der[e, ends[1][1]] = dy
    vals = {}
    out = np.zeros(pts.shape[0])
    for (c, j, blocks) in comp.terms:
        t = c * gval[j]
        for b in blocks:
            if b not in vals:
                vals[b] = _block(b, der)
            t = t * vals[b]
        out = out + t
    return out * ((-2j) ** comp.k * (2j) ** comp.kappa_vertices)


def _normalization(comp: _CompiledTree, req: CorrelatorRequest) -> complex:
    if req.normalization == "raw":
        return 1.0 + 0j
    n_green = len(comp.green_ids)
    kap = comp.kappa_vertices
    return ((2j * np.pi) ** (-n_green) * (-4j) ** kap
            * (-1) ** (kap * (kap - 1) // 2))


def _singular_mask(comp: _CompiledTree, curve, pts, tab=None):
    """Rows with a vertex within `_COINCIDENT` of one of its anchors, or of
    the vertex at the other end of one of its internal edges: the rows on a
    Green-function singularity, read from the rows' difference table `tab`
    (`_differences`, built here if not given)."""
    if tab is None:
        tab = _differences(comp, curve, pts)
    bad = np.zeros(pts.shape[0], dtype=bool)
    for dist in tab.near.values():
        bad |= dist < _COINCIDENT
    return bad


def _redraw(comp: _CompiledTree, mix: _Mixture, A, B, rows, key):
    """Redraw each listed row r of A and B from its own generator, seeded
    by key(r), up to 8 times, until it is off every singularity; returns
    the number of draws and of rows still singular."""
    draws = residual = 0
    for r in rows:
        rng = np.random.default_rng(key(r))
        one = slice(r, r + 1)
        for _ in range(8):
            draws += 1
            A[one], B[one] = mix.draw(rng, 1)
            if not (_singular_mask(comp, mix.curve, A[one])
                    | _singular_mask(comp, mix.curve, B[one]))[0]:
                break
        else:
            residual += 1
    return draws, residual


def _first_draw(scheme, rng, dim):
    """The batch's first draw, as a function that fills the batch's next
    rows of `dim` uniforms from the batch's generator: under qmc through one
    Sobol engine it seeds, scrambled per batch so the batch spread stays a
    valid error estimate.  Filling a batch in chunks gives the rows of one
    whole draw, bit for bit, under either scheme."""
    if scheme == "qmc":
        from scipy.stats import qmc
        sobol = qmc.Sobol(dim, scramble=True, seed=rng)

        def draw(out):
            out[:] = sobol.random(len(out))
        return draw
    return lambda out: rng.random(out=out)


def _eval_tree_mc(comp: _CompiledTree, req: CorrelatorRequest, tree_index: int):
    """Batched antithetic importance sampling for one tree; returns
    (value, stderr, n_samples, (n_rejected, n_residual)), the last pair the
    redraws off a singularity and the rows still on one after 8 redraws.

    Batch b draws from its own generator, so its values do not depend on
    how batches are grouped.  Consecutive batches of at most `_BLOCK` rows
    share one block; a larger batch is its own block.  A block is drawn,
    built, checked for singular rows and weighed in chunks of at most
    `_BLOCK` rows (one chunk for a block of small batches), so the working
    set stays bounded: only the weights w span the block.  A chunk's rows
    come grouped by component, its `twin` global rows first, where B is A:
    those are checked and weighed on A alone, and the weights are scattered
    back to draw order.  A side is checked and weighed from one difference
    table (`_differences`), and A's is spent before B's is built.  A
    singular row is redrawn at once, up to 8 times, from its own generator
    keyed by (seed, tree, batch, row in batch, in draw order), one entry
    longer than the batch's key, so no other row, block or chunk moves it;
    a redrawn row ends the twin prefix.  The result is bit-identical to
    drawing, building and weighing each batch whole."""
    if comp.k == 0:
        # single-edge tree: no integration
        (e, ends), = comp.greens.items()
        x = np.full(1, complex(ends[0][1]))
        y = np.full(1, complex(ends[1][1]))
        g, _, _ = req.curve.green(req.green, x, y)
        return complex(comp.sign * g[0]), 0.0, 0, (0, 0)
    mix = _Mixture(req.curve, comp)
    dim = mix.uniform_dim()
    # at least 8 batches so the batch-mean spread is a usable error estimate
    batch = max(1024, min(_BATCH, req.samples // 8))
    if req.scheme == "qmc":
        # Sobol points keep their balance only in power-of-two counts
        batch = 1 << (batch - 1).bit_length()
    nbatches = max(8, (req.samples + batch - 1) // batch)
    per_block = max(1, _BLOCK // batch)
    means = np.empty(nbatches, dtype=complex)
    rejected = residual = 0
    curve = req.curve

    def weigh(P, tab):
        """Weights of the rows of P, read from their table (`integrand`
        spends it)."""
        q = mix.density(P, tab)
        return integrand(comp, req, P, tab) / q

    for b0 in range(0, nbatches, per_block):
        draws = [_first_draw(req.scheme, np.random.default_rng(
            [req.seed, tree_index, b, 0x9e3779b9]), dim)
            for b in range(b0, min(b0 + per_block, nbatches))]
        n = len(draws) * batch
        w = np.empty(n, dtype=complex)
        for s in range(0, n, _BLOCK):
            c = slice(s, min(s + _BLOCK, n))
            U = np.empty((c.stop - c.start, dim))
            # a chunk holds whole batches, or part of the block's one batch
            for i, draw in enumerate(draws):
                draw(U[i * batch:(i + 1) * batch])
            A, B, order, twin = mix.build(U)
            del U               # not held through the integrand's peak

            def key(r):
                b, row = divmod(s + int(order[r]), batch)
                return [req.seed, tree_index, b0 + b, row, 0x9e3779b9]

            # A first: its table is checked and spent by the weighing before
            # B's is built, so one table is alive while the chunk is weighed
            tab = _differences(comp, curve, A)
            done = np.flatnonzero(_singular_mask(comp, curve, A, tab))
            if done.size:
                drawn, left = _redraw(comp, mix, A, B, done, key)
                rejected += drawn
                residual += left
                twin = min(twin, int(done[0]))  # a redrawn B no longer copies A
                tab = _differences(comp, curve, A)
            wt = weigh(A, tab)
            # then B where it is not A, less the rows already redrawn
            Bt = B[twin:]
            tab = _differences(comp, curve, Bt)
            bad = _singular_mask(comp, curve, Bt, tab)
            bad[done - twin] = False
            if bad.any():       # their A rows moved too: weigh A again
                drawn, left = _redraw(comp, mix, A, B,
                                      twin + np.flatnonzero(bad), key)
                rejected += drawn
                residual += left
                wt = weigh(A, _differences(comp, curve, A))
                tab = _differences(comp, curve, Bt)
            # B is A on the first twin rows, and 0.5 * (x + x) == x
            wt[twin:] = 0.5 * (wt[twin:] + weigh(Bt, tab))
            w[s + order] = wt
        means[b0:b0 + len(draws)] = w.reshape(len(draws), batch).mean(axis=1)
    value = complex(np.mean(means))
    se = float(np.sqrt((np.var(means.real) + np.var(means.imag)) / nbatches))
    return value, se, nbatches * batch, (rejected, residual)


def _validate_request(req: CorrelatorRequest):
    for name, allowed in (("scheme", ("mc", "qmc")),
                          ("normalization", ("raw", "2pii", "star"))):
        if getattr(req, name) not in allowed:
            raise ValueError(f"unknown {name} {getattr(req, name)!r}; "
                             f"expected one of {', '.join(allowed)}")
    if req.samples < 1:
        raise ValueError(f"samples must be at least 1, not {req.samples}")
    if req.samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most 2^40 = {_MAX_SAMPLES:,}, "
                         f"not {req.samples}")
    curve = req.curve
    curve.check_measure(req.green)

    def same(a, b) -> bool:
        """Equal points of the curve (on a torus, equal up to a period), at
        the threshold `_singular_mask` uses; two infinities are equal."""
        if is_infinity(a) or is_infinity(b):
            return is_infinity(a) and is_infinity(b)
        return curve.separation(complex(a) - complex(b)) < _COINCIDENT

    for ell in req.word.letters():
        if ell.kind in ("p", "q"):
            raise ValueError(f"letter {ell} is a symplectic generator, which "
                             f"a correlator cannot integrate")
        if ell.kind != "s" and not 1 <= ell.label <= curve.genus:
            raise ValueError(f"form letter {ell} is not a 1-form of "
                             f"{curve.label}, which has genus {curve.genus}")
    for cw in req.word.terms:
        if len(cw.rep) == 2:
            if any(ell.kind != "s" for ell in cw.rep):
                raise ValueError(f"word {cw!r} has no Green edge: its one "
                                 f"edge is decorated by a form")
            if same(*(req.resolve_point(ell.label) for ell in cw.rep)):
                raise ValueError(f"word {cw!r} has its two letters on one "
                                 f"point: its one edge is G(a, a)")
    labels = {ell.label for ell in req.word.letters() if ell.kind == "s"}
    items = [(lab, req.resolve_point(lab)) for lab in labels]
    for lab, val in items:
        if is_infinity(val) and not curve.has_infinity:
            raise ValueError(f"decoration point {lab!r} is at infinity, "
                             f"which exists only on P^1")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if same(items[i][1], items[j][1]):
                raise ValueError(f"decoration points {items[i][0]!r} and "
                                 f"{items[j][0]!r} coincide")
    if req.green.kind == "delta":
        for lab, val in items:
            if same(val, req.green.base):
                raise ValueError(f"decoration point {lab!r} sits on the base point")


def correlate(req: CorrelatorRequest) -> CorrelatorResult:
    """Tree-summed correlator of a cyclic word; Q-linear in the word,
    deterministic for a fixed seed."""
    _validate_request(req)
    per_tree = []
    total = 0j
    errsq = 0.0
    samples = 0
    rejected = residual = 0
    tree_index = 0
    for cw, coeff in sorted(req.word.terms.items(), key=lambda kv: repr(kv[0])):
        for forest in enumerate_trivalent_trees(cw):
            (tree,) = forest.trees
            comp = compile_tree(tree, req)
            tree_index += 1
            if comp is None:
                continue
            val, se, ns, (rej, res) = _eval_tree_mc(comp, req, tree_index)
            norm = _normalization(comp, req) * float(coeff) * forest.sign
            v = norm * val
            e = abs(norm) * se
            per_tree.append((tree.serialize(), v, e))
            total += v
            errsq += e * e
            samples += ns
            rejected += rej
            residual += res
    meta = {
        "curve": req.curve.label,
        "green": repr(req.green.mu),
        "word": repr(req.word),
        "normalization": req.normalization,
        "seed": req.seed,
        "scheme": req.scheme,
        "samples_requested": req.samples,
        # sample rows still on a Green-function singularity after 8 redraws
        "residual_singular": residual,
    }
    return CorrelatorResult(total, math.sqrt(errsq), samples, per_tree,
                            rejected, meta)


# ----------------------------------------------------------------------
# higher-level operations
# ----------------------------------------------------------------------

def multiple_green(curve, spec: GreenSpec, pts: list, **kw) -> CorrelatorResult:
    """Depth-(len(pts)-1) multiple Green function of the given points."""
    if len(pts) < 2:
        raise ValueError("need at least two points")
    labels = {f"g{i}": p for i, p in enumerate(pts)}
    w = CyclicElement.from_word([point(f"g{i}") for i in range(len(pts))])
    req = CorrelatorRequest(curve=curve, green=spec, word=w, points=labels, **kw)
    return correlate(req)


def cyclic_polylog_series(a_points: list, k_indices: list, **kw) -> CorrelatorResult:
    """Correlator of C({a_0} {0}^{k_0} ... {a_m} {0}^{k_m}) on P^1, base oo."""
    if any(complex(a) == 0 for a in a_points):
        raise ValueError("a_i must be nonzero")
    letters = []
    labels = {"zero": 0j}
    for i, (a, ki) in enumerate(zip(a_points, k_indices)):
        labels[f"a{i}"] = complex(a)
        letters.append(point(f"a{i}"))
        letters.extend(point("zero") for _ in range(ki))
    w = CyclicElement.from_word(letters)
    req = CorrelatorRequest(curve=RationalCurve(), green=GreenSpec.delta(INFINITY),
                            word=w, points=labels, **kw)
    return correlate(req)


def cyclic_polylog_table(a_points: list, max_k: int = 2, max_total: int = 4,
                         **kw) -> dict:
    """Table of depth-(len(a_points)-1) cyclic polylog correlators indexed by
    the zero-insertion tuples (k_0, ..., k_m) with k_i <= max_k."""
    out = {}
    m1 = len(a_points)
    for ks in itertools.product(range(max_k + 1), repeat=m1):
        if sum(ks) > max_total:
            continue
        out[ks] = cyclic_polylog_series(a_points, list(ks), **kw)
    return out


def levin_reference(n: int, z: complex) -> complex:
    """The closed-form target -(2 pi i)^{-n} L_n(z) for the caterpillar word."""
    _, lev = levin_polylog(n, z)
    return -lev * (2j * np.pi) ** (-n)


def symmetric_form_word(a_labels: list, powers: list) -> CyclicElement:
    """C({a_0} dzbar^{p_0} dz^{q_0} / (p_0! q_0!) ... ) symmetrized.

    powers[i] = (p_i, q_i) inserts Sym^(p_i+q_i) built from p_i antiholomorphic
    and q_i holomorphic form symbols after the i-th point; the 1/(p! q!)
    weights cancel against the multiset multiplicities, leaving each distinct
    arrangement with coefficient 1.
    """
    gaps = []
    for (p, q) in powers:
        arr = sorted(set(itertools.permutations([-1] * p + [+1] * q)))
        gaps.append(arr)
    acc = CyclicElement.zero()
    for combo in itertools.product(*gaps):
        letters = []
        for lab, arrangement in zip(a_labels, combo):
            letters.append(point(lab))
            for h in arrangement:
                letters.append(hol_form(1) if h > 0 else antihol_form(1))
        acc = acc + CyclicElement.from_word(letters)
    return acc


def elliptic_correlator(curve: EllipticCurve, word: CyclicElement,
                        points: dict, **kw) -> CorrelatorResult:
    """Symmetric Hodge correlator on an elliptic curve under the
    invariant-volume Green function; a tree joining two form letters at a
    vertex integrates to zero on its own and is dropped (`compile_tree`)."""
    req = CorrelatorRequest(curve=curve, green=GreenSpec.volume(), word=word,
                            points=points, **kw)
    return correlate(req)
