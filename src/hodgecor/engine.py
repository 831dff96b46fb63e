"""Monte Carlo evaluation of tree-summed correlator integrals.

For each decorated plane trivalent tree the integrand is assembled from the
alternation form over the Green functions of the non-special edges, wedged
with the 1-forms of the special (form-decorated) edges, carrying the sign of
the canonical orientation.  The sum over trees is integrated over one copy
of the curve per internal vertex by importance-sampled Monte Carlo.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exact_algebra import CyclicElement, antihol_form, hol_form, point
from .form_calculus import omega_terms, omega_star_terms
from .geometry import (EllipticCurve, GreenSpec, RationalCurve, is_infinity,
                       INFINITY, levin_polylog)
from .tree_calculus import PlaneTree, _perm_parity, enumerate_trivalent_trees

__all__ = [
    "CorrelatorRequest", "CorrelatorResult", "correlate", "multiple_green",
    "cyclic_polylog_series", "elliptic_correlator", "symmetric_form_word",
    "compile_tree", "integrand",
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
    batch: int = 1 << 14
    normalization: str = "2pii"                  # 'raw' | '2pii' | 'star'
    rho: float = 0.0                             # 0 -> per-curve default
    green_constant: float = 0.0
    prune_two_form_vertices: bool = False

    def resolve_point(self, label: str):
        if label in self.points:
            return self.points[label]
        txt = str(label)
        if txt in ("inf", "oo"):
            return INFINITY
        try:
            return complex(txt.replace("i", "j"))
        except ValueError:
            raise ValueError(f"cannot resolve point label {label!r}; "
                             f"pass it in request.points")


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

class _CompiledTree:
    """Flattened integrand template for one decorated tree."""

    __slots__ = ("tree", "k", "greens", "green_ids", "specials", "terms",
                 "sign", "anchors_of_var", "pairs", "kappa_vertices")

    def __init__(self, tree, k, greens, green_ids, specials, terms, sign,
                 anchors_of_var, pairs, kappa_vertices):
        self.tree = tree
        self.k = k
        self.greens = greens
        self.green_ids = green_ids
        self.specials = specials
        self.terms = terms
        self.sign = sign
        self.anchors_of_var = anchors_of_var
        self.pairs = pairs
        self.kappa_vertices = kappa_vertices


def _edge_endpoints(tree: PlaneTree):
    """Endpoint sites of every edge: ('leaf', pos) or ('node', block)."""
    out = {}
    if tree.n == 1:
        out[("leaf", 0)] = (("leaf", 0), ("leaf", 1))
        return out
    parent = {}

    def walk(block):
        for ch in tree.node_children(block):
            if isinstance(ch, tuple):
                parent[("int", ch)] = block
                walk(ch)
            else:
                parent[("leaf", ch)] = block

    walk(("root",))
    parent[("leaf", 0)] = ("root",)
    for e in tree.edges():
        if e[0] == "leaf":
            out[e] = (("leaf", e[1]), ("node", parent[e]))
        else:
            out[e] = (("node", e[1]), ("node", parent[e]))
    return out


def compile_tree(tree: PlaneTree, req: CorrelatorRequest):
    """Build the flattened integrand template, or None if the tree's
    integrand vanishes identically (zero-tree pruning)."""
    letters = tree.letters()
    endpoints = _edge_endpoints(tree)
    # internal vertices in canonical order
    if tree.n == 1:
        nodes = []
    else:
        nodes = [("root",)] + sorted(tree.intervals)
    var_of = {("node", b if b != ("root",) else ("root",)): i
              for i, b in enumerate(nodes)}
    k = len(nodes)

    def site_desc(site):
        if site[0] == "leaf":
            ltr = letters[site[1]]
            if ltr.kind == "s":
                return ("c", req.resolve_point(ltr.label))
            return ("form", site[1])
        return ("v", var_of[site])

    greens, specials = {}, []
    for e in tree.edges():
        s0, s1 = endpoints[e]
        d0, d1 = site_desc(s0), site_desc(s1)
        if d0[0] == "form" or d1[0] == "form":
            fpos = d0[1] if d0[0] == "form" else d1[1]
            hostdesc = d1 if d0[0] == "form" else d0
            ltr = letters[fpos]
            hol = +1 if ltr.kind == "dz" else -1
            specials.append((e, hostdesc[1], hol))
        else:
            greens[e] = (d0, d1)

    # zero-tree pruning: a vertex carrying two leaves with equal decorations
    vertex_leafs = {}
    for e, (a, b) in endpoints.items():
        if e[0] != "leaf":
            continue
        host = b if b[0] == "node" else a
        vertex_leafs.setdefault(host, []).append(e[1])
    for host, poss in vertex_leafs.items():
        if host[0] != "node":
            continue
        forms = [letters[p] for p in poss if letters[p].kind in ("dz", "dzb")]
        spoints = [req.resolve_point(letters[p].label) for p in poss
                   if letters[p].kind == "s"]
        if len(forms) >= 2 and (req.prune_two_form_vertices
                                or len(set(f.kind for f in forms)) < len(forms)):
            return None
        for u, v in itertools.combinations(spoints, 2):
            if u == v or (is_infinity(u) and is_infinity(v)):
                return None

    dfs = tree.edges()
    green_ids = [e for e in dfs if e in greens]
    special_ids = [e for e in dfs if e not in greens]
    order = green_ids + special_ids
    sign = _perm_parity(order, dfs)
    r = len(green_ids) - 1

    # kappa = internal vertices with no incident special edge
    special_hosts = {v for (_, v, _) in specials}
    kappa_vertices = k - len(special_hosts)

    src = omega_star_terms(r) if req.normalization == "star" else omega_terms(r)
    fixed_slots = []
    spec_by_edge = {e: (v, h) for (e, v, h) in specials}
    for e in special_ids:
        v, h = spec_by_edge[e]
        fixed_slots.append(2 * v + (0 if h > 0 else 1))

    terms = []
    for coeff, j, A, B in src:
        choices = []
        for a in A:
            ends = greens[green_ids[a]]
            vs = [d[1] for d in ends if d[0] == "v"]
            choices.append([(green_ids[a], v, +1) for v in vs])
        for b in B:
            ends = greens[green_ids[b]]
            vs = [d[1] for d in ends if d[0] == "v"]
            choices.append([(green_ids[b], v, -1) for v in vs])
        for pick in itertools.product(*choices):
            slots = [2 * v + (0 if h > 0 else 1) for (_, v, h) in pick] + fixed_slots
            if len(set(slots)) != len(slots) or len(slots) != 2 * k:
                continue
            wsign = _perm_parity(slots, sorted(slots))
            terms.append((float(coeff) * wsign * sign, green_ids[j], tuple(pick)))

    # sampler hints
    anchors_of_var = [[] for _ in range(k)]
    pairs = []
    base = req.green.base if req.green.kind == "delta" else None
    for e, ends in greens.items():
        cs = [d[1] for d in ends if d[0] == "c"]
        vs = [d[1] for d in ends if d[0] == "v"]
        for v in vs:
            for c in cs:
                if not is_infinity(c):
                    anchors_of_var[v].append(complex(c))
            if base is not None and not is_infinity(base):
                anchors_of_var[v].append(complex(base))
        if len(vs) == 2:
            pairs.append((vs[0], vs[1]))
    return _CompiledTree(tree, k, greens, green_ids, specials, terms, sign,
                         anchors_of_var, pairs, kappa_vertices)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

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
    """

    def __init__(self, curve, comp: _CompiledTree, rho: float, glob_w: float = 0.25):
        self.curve = curve
        self.k = comp.k
        self.rho = rho
        adj = {v: set() for v in range(comp.k)}
        for v, w in comp.pairs:
            adj[v].add(w)
            adj[w].add(v)
        comps = [("glob", None, None)]
        for v in range(comp.k):
            for c in dict.fromkeys(comp.anchors_of_var[v]):
                comps.append(("pt", v, c))
        for v, w in comp.pairs:
            comps.append(("pair", v, w))
            comps.append(("pair", w, v))
        if comp.k > 1:
            for root in range(comp.k):
                parents = self._spanning(adj, root, comp.k)
                if parents is None:
                    continue
                comps.append(("chain", (root, parents), None))
                for c in dict.fromkeys(comp.anchors_of_var[root]):
                    comps.append(("chain", (root, parents), c))
        self.comps = comps
        wts = np.full(len(comps), (1.0 - glob_w) / max(1, len(comps) - 1))
        wts[0] = glob_w if len(comps) > 1 else 1.0
        self.wts = wts

    @staticmethod
    def _spanning(adj, root, k):
        """BFS parent array over the internal-edge graph, or None if the
        variables are not connected through it."""
        parents = [None] * k
        seen = {root}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in sorted(adj[u]):
                if w not in seen:
                    seen.add(w)
                    parents[w] = u
                    queue.append(w)
        if len(seen) != k:
            return None
        # order children after parents
        order = []
        pending = [root]
        while pending:
            u = pending.pop(0)
            order.append(u)
            pending.extend(w for w in range(k) if parents[w] == u)
        return tuple((v, parents[v]) for v in order[1:])

    def _q_polar(self, d):
        r = self.curve.separation(d)
        return np.where(r < self.rho,
                        1.0 / (2 * np.pi * self.rho * np.maximum(r, 1e-300)), 0.0)

    def uniform_dim(self) -> int:
        # component selector + 2 uniforms per variable + polar (r, theta)
        return 1 + 2 * self.k + 2

    def build(self, U: np.ndarray):
        """Map a uniform matrix (n, uniform_dim) to antithetic point pairs."""
        n = U.shape[0]
        k = self.k
        cum = np.cumsum(self.wts)
        ci = np.searchsorted(cum, U[:, 0] * cum[-1], side="right")
        ci = np.minimum(ci, len(self.comps) - 1)
        A = np.empty((n, k), dtype=complex)
        for v in range(k):
            A[:, v] = self.curve.global_point(U[:, 1 + 2 * v], U[:, 2 + 2 * v])
        B = A.copy()
        r = self.rho * U[:, 1 + 2 * k]
        th = 2 * np.pi * U[:, 2 + 2 * k]
        off = r * np.exp(1j * th)
        # per-variable polar offsets for chain components, recycled from the
        # same uniforms that would otherwise drive the global coordinates
        offv = np.empty((n, k), dtype=complex)
        for v in range(k):
            offv[:, v] = (self.rho * U[:, 1 + 2 * v]
                          * np.exp(2j * np.pi * U[:, 2 + 2 * v]))
        for i, (kind, v, c) in enumerate(self.comps):
            m = ci == i
            if not m.any() or kind == "glob":
                continue
            if kind == "pt":
                A[m, v] = c + off[m]
                B[m, v] = c - off[m]
            elif kind == "pair":
                A[m, v] = A[m, c] + off[m]
                B[m, v] = B[m, c] - off[m]
            else:  # chain
                root, parents = v
                if c is not None:
                    A[m, root] = c + off[m]
                    B[m, root] = c - off[m]
                for child, parent in parents:
                    A[m, child] = A[m, parent] + offv[m, child]
                    B[m, child] = B[m, parent] - offv[m, child]
        return A, B

    def draw(self, rng, n):
        return self.build(rng.random((n, self.uniform_dim())))

    def density(self, pts):
        qg = self.curve.global_density(pts)
        prod_g = qg.prod(axis=1)
        q = self.wts[0] * prod_g
        for i, (kind, v, c) in enumerate(self.comps):
            if kind == "glob":
                continue
            if kind in ("pt", "pair"):
                d = pts[:, v] - (c if kind == "pt" else pts[:, c])
                q = q + self.wts[i] * prod_g / qg[:, v] * self._q_polar(d)
            else:  # chain
                root, parents = v
                dens = (qg[:, root] if c is None
                        else self._q_polar(pts[:, root] - c))
                for child, parent in parents:
                    dens = dens * self._q_polar(pts[:, child] - pts[:, parent])
                q = q + self.wts[i] * dens
        return q


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _coord(desc, pts):
    """Positions of an edge end over the rows of pts: an internal-vertex
    column, or a fixed point repeated."""
    if desc[0] == "v":
        return pts[:, desc[1]]
    return np.full(pts.shape[0], complex(desc[1]))


def integrand(comp: _CompiledTree, req: CorrelatorRequest, pts: np.ndarray):
    """Top-form coefficient times the product measure factor (-2i)^k,
    evaluated at an (N, k) array of internal-vertex positions."""
    n = pts.shape[0]
    need = {}
    for (_, _, pick) in comp.terms:
        for (e, v, h) in pick:
            need.setdefault(e, set()).add(v)
    gval, gder = {}, {}
    for e, ends in comp.greens.items():
        x, y = _coord(ends[0], pts), _coord(ends[1], pts)
        vx = ends[0][0] == "v" and ends[0][1] in need.get(e, ())
        vy = ends[1][0] == "v" and ends[1][1] in need.get(e, ())
        g, dx, dy = req.curve.green(req.green, x, y, req.green_constant, vx, vy)
        gval[e] = g
        dd = {}
        if vx:
            dd[(ends[0][1], +1)] = dx
            dd[(ends[0][1], -1)] = np.conj(dx)
        if vy:
            dd[(ends[1][1], +1)] = dy
            dd[(ends[1][1], -1)] = np.conj(dy)
        gder[e] = dd
    out = np.zeros(n, dtype=complex)
    for (c, j, pick) in comp.terms:
        t = c * gval[j]
        for (e, v, h) in pick:
            t = t * gder[e][(v, h)]
        out += t
    return out * (-2j) ** comp.k


def _normalization(comp: _CompiledTree, req: CorrelatorRequest) -> complex:
    if req.normalization == "raw":
        return 1.0 + 0j
    n_green = len(comp.green_ids)
    kap = comp.kappa_vertices
    return ((2j * np.pi) ** (-n_green) * (-4j) ** kap
            * (-1) ** (kap * (kap - 1) // 2))


def _singular_mask(comp, req, pts):
    """Rows within 1e-9 of a Green-function singularity."""
    bad = np.zeros(pts.shape[0], dtype=bool)
    sep = req.curve.separation
    base = req.green.base if req.green.kind == "delta" else None
    for e, ends in comp.greens.items():
        if any(d[0] == "c" and is_infinity(d[1]) for d in ends):
            continue
        x, y = _coord(ends[0], pts), _coord(ends[1], pts)
        bad |= sep(x - y) < 1e-9
        if base is not None and not is_infinity(base):
            if ends[0][0] == "v":
                bad |= sep(x - complex(base)) < 1e-9
            if ends[1][0] == "v":
                bad |= sep(y - complex(base)) < 1e-9
    return bad


def _eval_tree_mc(comp: _CompiledTree, req: CorrelatorRequest, tree_index: int):
    """Batched antithetic importance sampling for one tree; returns
    (value, stderr, n_samples, n_rejected)."""
    if comp.k == 0:
        # single-edge tree: no integration
        (e, ends), = comp.greens.items()
        x = np.full(1, complex(ends[0][1]))
        y = np.full(1, complex(ends[1][1]))
        g, _, _ = req.curve.green(req.green, x, y, req.green_constant)
        return complex(comp.sign * g[0]), 0.0, 0, 0, True
    rho = req.rho or req.curve.default_rho
    mix = _Mixture(req.curve, comp, rho)
    # at least 8 batches so the batch-mean spread is a usable error estimate
    batch = max(1024, min(req.batch, req.samples // 8))
    if req.scheme == "qmc":
        # Sobol points keep their balance only in power-of-two blocks
        batch = 1 << (batch - 1).bit_length()
    nbatches = max(8, (req.samples + batch - 1) // batch)
    means = np.empty(nbatches, dtype=complex)
    rejected = 0
    if req.scheme == "qmc":
        from scipy.stats import qmc
    for b in range(nbatches):
        rng = np.random.default_rng([req.seed, tree_index, b, 0x9e3779b9])
        if req.scheme == "qmc":
            # independently scrambled Sobol per batch: unbiased, and the
            # batch spread remains a valid error estimate
            sobol = qmc.Sobol(d=mix.uniform_dim(), scramble=True, seed=rng)
            A, B = mix.build(sobol.random(batch))
        else:
            A, B = mix.draw(rng, batch)
        for _ in range(8):
            bad = _singular_mask(comp, req, A) | _singular_mask(comp, req, B)
            nb = int(bad.sum())
            if nb == 0:
                break
            rejected += nb
            A2, B2 = mix.draw(rng, nb)
            A[bad], B[bad] = A2, B2
        w = 0.5 * (integrand(comp, req, A) / mix.density(A)
                   + integrand(comp, req, B) / mix.density(B))
        means[b] = w.mean()
    value = complex(np.mean(means))
    se = float(np.sqrt((np.var(means.real) + np.var(means.imag)) / nbatches))
    # variance-stabilization heuristic: the two halves of the batch stream
    # should estimate compatible spreads
    half = nbatches // 2
    s1 = np.var(means.real[:half]) + np.var(means.imag[:half])
    s2 = np.var(means.real[half:]) + np.var(means.imag[half:])
    stable = bool(max(s1, s2) < 25 * max(min(s1, s2), 1e-300)) if half >= 2 else True
    return value, se, nbatches * batch, rejected, stable


def _validate_request(req: CorrelatorRequest):
    req.curve.check_measure(req.green)
    labels = {ell.label for ell in req.word.letters() if ell.kind == "s"}
    resolved = {lab: req.resolve_point(lab) for lab in labels}
    items = list(resolved.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i][1], items[j][1]
            if (is_infinity(a) and is_infinity(b)) or \
                    (not is_infinity(a) and not is_infinity(b) and complex(a) == complex(b)):
                raise ValueError(f"decoration points {items[i][0]!r} and "
                                 f"{items[j][0]!r} coincide")
    if req.green.kind == "delta":
        base = req.green.base
        for lab, val in items:
            same_inf = is_infinity(val) and is_infinity(base)
            if same_inf or (not is_infinity(val) and not is_infinity(base)
                            and complex(val) == complex(base)):
                raise ValueError(f"decoration point {lab!r} sits on the base point")


def correlate(req: CorrelatorRequest) -> CorrelatorResult:
    """Tree-summed correlator of a cyclic word; Q-linear in the word,
    deterministic for a fixed seed."""
    _validate_request(req)
    per_tree = []
    total = 0j
    errsq = 0.0
    samples = 0
    rejected = 0
    stabilized = True
    tree_index = 0
    for cw, coeff in sorted(req.word.terms.items(), key=lambda kv: repr(kv[0])):
        for forest in enumerate_trivalent_trees(cw):
            (tree,) = forest.trees
            comp = compile_tree(tree, req)
            tree_index += 1
            if comp is None:
                continue
            val, se, ns, rej, stab = _eval_tree_mc(comp, req, tree_index)
            norm = _normalization(comp, req) * float(coeff) * forest.sign
            v = norm * val
            e = abs(norm) * se
            per_tree.append((tree.serialize(), v, e))
            total += v
            errsq += e * e
            samples += ns
            rejected += rej
            stabilized &= stab
    meta = {
        "curve": req.curve.label,
        "green": repr(req.green.mu),
        "word": repr(req.word),
        "normalization": req.normalization,
        "seed": req.seed,
        "scheme": req.scheme,
        "samples_requested": req.samples,
        "green_constant": req.green_constant,
        "variance_stabilized": stabilized,
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
    if len(set(map(complex, [p for p in pts if not is_infinity(p)]))) \
            != len([p for p in pts if not is_infinity(p)]):
        raise ValueError("points must be pairwise distinct")
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
    """Symmetric Hodge correlator on an elliptic curve: invariant-volume
    Green function, with trees joining two form letters at a vertex pruned
    (their contributions cancel pairwise inside symmetrized words)."""
    req = CorrelatorRequest(curve=curve, green=GreenSpec.volume(), word=word,
                            points=points, prune_two_form_vertices=True, **kw)
    return correlate(req)
