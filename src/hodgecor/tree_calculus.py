"""Plane trees decorated by cyclic words, orientation torsors, and the
tree-complex differential.

A decorated plane tree is stored combinatorially: boundary positions 0..n
carry the letters of the canonical rotation of a cyclic word, and the
internal edges form a laminar family of position intervals (i, j) inside
{1..n} (the side of the edge not containing position 0).  A trivalent tree
is a maximal (binary) laminar family; contracting internal edges removes
intervals and merges vertices.  Trees are identified across rotations of a
symmetric word; if some decorated automorphism permutes the edges oddly the
orientation torsor collapses and the generator is zero (`null` trees, which
every consumer silently drops).

Orientations are signed orderings of the edge set.  The canonical
orientation lists edges in depth-first order from the position-0 leaf,
visiting branches clockwise (= by increasing boundary position); every sign
below is a permutation parity against this order.

Differential conventions.  Every term's sign is the parity of the
permutation from the expression wedge to the canonical one, where the
expression moves the acted edge E to the front of the total forest wedge
(encoding the Leibniz sign through the edge count), drops it, sorts the
survivors into piece blocks, and places the new external edges created by a
cut in front of all piece blocks ('newfirst').  On top of this the
contraction and S-removal parts carry a relative minus sign against the
Casimir part.  This convention set is pinned by three exact identities
checked in the tests: d^2 = 0 on forests (including 4-valent vertices and
multiple components), co-Jacobi for the cobracket, and the intertwining of
the tree sum with the cobracket; the absolute normalization against the
plane orientation is fixed downstream by the closed-form correlator anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_algebra import (
    CyclicElement, CyclicWord, Letter, LinearCombination, add_into,
    perm_parity, sympl_p, sympl_q,
)

__all__ = [
    "PlaneTree", "OrientedForest", "ForestVector", "CasimirBasis", "Wedge2",
    "enumerate_trivalent_trees", "differential", "cobracket",
    "cobracket_squared", "tree_sum_map", "tree_sum_ext", "abstract_projection",
]


@dataclass(frozen=True)
class CasimirBasis:
    """Symplectic basis with duals: tuples (alpha_k, sign, alpha_k_vee) so that
    Id = sum_k alpha_k_vee (x) alpha_k, (alpha_k, alpha_l_vee) = delta_kl."""

    pairs: tuple

    @staticmethod
    def symplectic(genus: int) -> "CasimirBasis":
        pairs = []
        for i in range(1, genus + 1):
            pairs.append((sympl_p(i), 1, sympl_q(i)))   # dual(p_i) = q_i
            pairs.append((sympl_q(i), -1, sympl_p(i)))  # dual(q_i) = -p_i
        return CasimirBasis(tuple(pairs))


# ----------------------------------------------------------------------
# geometry helpers; an arc is a cyclic interval (start, end), inclusive,
# of boundary positions 0..npos-1
# ----------------------------------------------------------------------

def _arc_len(arc, npos: int) -> int:
    return (arc[1] - arc[0]) % npos + 1


def _complement(arc, npos: int) -> tuple:
    """The cyclic interval of the positions outside the proper arc `arc`."""
    return ((arc[1] + 1) % npos, (arc[0] - 1) % npos)


def _inside(a, b, npos: int) -> bool:
    """Is the arc a contained in the proper arc b?"""
    return (a[0] - b[0]) % npos + _arc_len(a, npos) <= _arc_len(b, npos)


def _structure(npos: int, intervals) -> tuple:
    """(children, order, parent) of the plane tree with boundary positions
    0..npos-1 and the laminar family `intervals`, from one stack pass over
    the intervals by (start, -end): children[block] lists a block's direct
    children (intervals and singleton positions) by increasing start, order
    is the canonical edge order and parent[i] the block that edge order[i]
    hangs from.  Blocks are ('root',) and the intervals.  A single-edge tree
    (npos == 2, no internal vertex) has exactly one edge and no parent.
    Raises ValueError if an interval ends past the block it opens in, that
    is, if two arcs cross."""
    root = ("root",)
    if npos == 2:
        return {root: [1]}, (("leaf", 0),), ()
    children, order, parent = {root: []}, [("leaf", 0)], [root]
    stack = [(root, npos - 1)]
    ivs = iter(sorted(intervals, key=lambda iv: (iv[0], -iv[1])))
    iv = next(ivs, None)
    for pos in range(1, npos):
        while iv is not None and iv[0] == pos:
            block, hi = stack[-1]
            if iv[1] > hi:
                raise ValueError("edge arcs cross; not a plane tree")
            children[block].append(iv)
            children[iv] = []
            order.append(("int", iv))
            parent.append(block)
            stack.append((iv, iv[1]))
            iv = next(ivs, None)
        block = stack[-1][0]
        children[block].append(pos)
        order.append(("leaf", pos))
        parent.append(block)
        while stack and stack[-1][1] == pos:
            stack.pop()
    return children, tuple(order), tuple(parent)


class PlaneTree:
    """Decorated plane tree in canonical form; construct via `from_raw`."""

    __slots__ = ("word", "intervals", "n", "null", "_key", "_child", "_edges",
                 "_parent")

    def __init__(self, word: CyclicWord, intervals: tuple, null: bool,
                 structure: tuple):
        self.word = word
        self.intervals = intervals
        self.n = len(word) - 1
        self.null = null
        self._key = (word, intervals, null)
        self._child, self._edges, self._parent = structure

    # -- canonical constructor ------------------------------------------
    @staticmethod
    def from_raw(letters: Sequence[Letter], arcs: Iterable[tuple] = ()):
        """Canonicalize a raw boundary sequence plus edge arcs.

        Each arc is a cyclic interval (start, end), inclusive, of raw
        positions, giving either side of an internal edge.  Returns
        (tree, translate) where translate maps raw arcs (including (p, p)
        for the leaf edge at p) to canonical edge ids.
        """
        letters = list(letters)
        npos = len(letters)
        if npos < 2:
            raise ValueError("a tree needs at least two leaves")
        arcs = list(arcs)
        if any(not 2 <= _arc_len(a, npos) <= npos - 2 for a in arcs):
            raise ValueError("an edge arc must leave two leaves on either side")
        word = CyclicWord(letters)
        rots = [r for r in range(npos)
                if tuple(letters[r:] + letters[:r]) == word.rep]

        def side(a, r):
            """The side away from 0 of the arc a with position r moved to 0."""
            s, e = (a[0] - r) % npos, (a[1] - r) % npos
            return (s, e) if 0 < s <= e else _complement((s, e), npos)

        def edge_id(a, r):
            if npos == 2:
                return ("leaf", 0)
            k = _arc_len(a, npos)
            if k == 1:
                return ("leaf", (a[0] - r) % npos)
            if k == npos - 1:
                return ("leaf", (a[1] + 1 - r) % npos)
            return ("int", side(a, r))

        keys = {r: tuple(sorted(side(a, r) for a in arcs)) for r in rots}
        intervals = min(keys.values())
        winners = [r for r in rots if keys[r] == intervals]
        r0 = winners[0]
        structure = _structure(npos, intervals)

        # decorated automorphisms = rotations tying the minimal encoding;
        # an odd edge permutation collapses the orientation torsor
        null = False
        order0 = structure[1]
        if npos > 2:
            for r in winners[1:]:
                image = [edge_id((e[1], e[1]) if e[0] == "leaf" else e[1], r - r0)
                         for e in order0]
                if perm_parity(image, order0) < 0:
                    null = True
                    break
        tree = PlaneTree(word, intervals, null, structure)
        return tree, lambda a: edge_id(a, r0)

    # -- structure --------------------------------------------------------
    def letters(self) -> tuple:
        return self.word.rep

    def edges(self) -> list:
        return list(self._edges)

    def edge_ends(self) -> dict:
        """(child end, parent end) of every edge, in canonical edge order;
        an end is ('leaf', pos) or ('node', block)."""
        if self.n == 1:
            return {("leaf", 0): (("leaf", 0), ("leaf", 1))}
        return {e: (e if e[0] == "leaf" else ("node", e[1]), ("node", p))
                for e, p in zip(self._edges, self._parent)}

    def edge_arc(self, edge) -> tuple:
        """The arc an edge cuts off, away from position 0 for an internal
        edge: (p, p) for the leaf edge at p, (i, j) for an interval."""
        kind, val = edge
        return (val, val) if kind == "leaf" else val

    def node_children(self, block) -> list:
        """Direct children (intervals and singleton positions) of a laminar
        node; block is ('root',) or an interval."""
        return self._child[block]

    def vertex_valencies(self) -> list:
        if self.n == 1:
            return []
        out = [len(self.node_children(("root",))) + 1]
        for iv in self.intervals:
            out.append(len(self.node_children(iv)) + 1)
        return out

    def degree(self) -> int:
        return sum(v - 3 for v in self.vertex_valencies()) + 1

    def __eq__(self, other):
        return isinstance(other, PlaneTree) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other: "PlaneTree"):
        return (self.word, self.intervals) < (other.word, other.intervals)

    def __repr__(self):
        ivs = ",".join(f"{i}-{j}" for i, j in self.intervals)
        tag = "!0" if self.null else ""
        return f"Tree[{self.word}; {ivs or 'o'}{tag}]"

    def serialize(self) -> str:
        """Stable nested-parentheses form plus the canonical edge order."""

        def rec(block):
            parts = []
            for ch in self.node_children(block):
                if isinstance(ch, tuple):
                    parts.append(rec(ch))
                else:
                    parts.append(str(self.letters()[ch]))
            return "(" + " ".join(parts) + ")"

        body = f"({self.letters()[1]})" if self.n == 1 else rec(("root",))
        edges = ",".join(f"{k}:{v}" for k, v in self.edges())
        return f"{self.letters()[0]}{body}|{edges}"


class OrientedForest:
    """Multiset of plane trees with a signed edge ordering, stored with
    components sorted and the orientation deviation absorbed into `sign`."""

    __slots__ = ("trees", "sign")

    def __init__(self, trees: Sequence[PlaneTree], sign: int = 1,
                 edge_order: list | None = None):
        trees = list(trees)
        perm = sorted(range(len(trees)), key=lambda i: (trees[i]._key, i))
        sign *= _reorder_parity(trees, perm, edge_order)
        self.trees = tuple(trees[i] for i in perm)
        self.sign = sign

    def is_null(self) -> bool:
        return _null_forest(self.trees)

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return s + " u ".join(map(repr, self.trees))


def _reorder_parity(trees: Sequence[PlaneTree], perm: list,
                    edge_order: list | None = None) -> int:
    """Parity of `edge_order`, (component, edge) pairs defaulting to each
    component's canonical edges in turn, against the canonical edges of the
    components taken in the order `perm`."""
    if edge_order is None:
        edge_order = [(ci, e) for ci, t in enumerate(trees) for e in t.edges()]
    return perm_parity(edge_order, [(ci, e) for ci in perm for e in trees[ci].edges()])


def _null_forest(trees: tuple) -> bool:
    """A forest, components sorted, is zero if one of its trees is null or a
    component with an odd number of edges repeats (T ^ T = 0)."""
    return any(t.null for t in trees) or any(
        t1 == t2 and len(t1.edges()) % 2 for t1, t2 in zip(trees, trees[1:]))


class ForestVector(LinearCombination):
    """Rational combination of oriented forests; orientation signs absorbed,
    null forests dropped."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = self._summed(
            (k, c) for k, c in (terms or {}).items() if not _null_forest(k))

    @staticmethod
    def from_forest(f: OrientedForest, coeff=1) -> "ForestVector":
        return ForestVector({f.trees: Fraction(coeff) * f.sign})

    def degrees(self) -> set:
        return {sum(t.degree() for t in k) for k in self.terms}

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*[{' u '.join(map(repr, k))}]"
                          for k, v in sorted(self.terms.items(), key=str))


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def _bracketings(lo: int, hi: int):
    if lo == hi:
        yield []
        return
    for k in range(lo, hi):
        for left in _bracketings(lo, k):
            for right in _bracketings(k + 1, hi):
                blocks = []
                if k > lo:
                    blocks.append((lo, k))
                if hi > k + 1:
                    blocks.append((k + 1, hi))
                yield left + right + blocks


def enumerate_trivalent_trees(decoration) -> list:
    """All plane trivalent trees with clockwise boundary reading the given
    cyclic word, each carrying the canonical orientation.

    Trees are counted relative to fixed boundary positions (the multilinear
    convention), so a word of length m+1 always yields Catalan(m-1) entries.
    """
    letters = list(decoration.rep) if isinstance(decoration, CyclicWord) else list(decoration)
    n = len(letters) - 1
    if n < 1:
        raise ValueError("decorations need length >= 2")
    if n == 1:
        tree, _ = PlaneTree.from_raw(letters)
        return [OrientedForest([tree])]
    out = []
    for fam in _bracketings(1, n):
        tree, _ = PlaneTree.from_raw(letters, fam)
        out.append(OrientedForest([tree]))
    return out


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------

def _branch_arcs(tree: PlaneTree, branch: tuple) -> dict:
    """Raw arcs, in the piece cut off along the boundary arc `branch` =
    (s, e), of the edges that reach into it, keyed in canonical edge order.
    Position s + t of the branch becomes t and the new leaf closing the arc
    sits at k = len(branch); an edge inside the branch keeps its shifted arc,
    an edge whose complement is inside takes the complement of the shifted
    complement, which runs through k."""
    npos = tree.n + 1
    s = branch[0]
    k = _arc_len(branch, npos)
    raw_arcs = {}
    for e in tree.edges():
        side = tree.edge_arc(e)
        if _inside(side, branch, npos):
            raw_arcs[e] = ((side[0] - s) % npos, (side[1] - s) % npos)
        else:
            out = _complement(side, npos)
            if _inside(out, branch, npos):
                raw_arcs[e] = _complement(
                    ((out[0] - s) % npos, (out[1] - s) % npos), k + 1)
    return raw_arcs


def _piece(tree: PlaneTree, branch: tuple, extra: Letter, raw_arcs: dict):
    """Subtree spanned by the boundary arc `branch` plus one new leaf `extra`
    closing the arc, from the branch's `_branch_arcs`.  Returns (piece_tree,
    edge_map, new_edge_id) with edge_map translating old edge ids into the
    piece."""
    npos = tree.n + 1
    k = _arc_len(branch, npos)
    letters = [tree.letters()[(branch[0] + t) % npos] for t in range(k)] + [extra]
    piece_tree, tr = PlaneTree.from_raw(
        letters, [a for a in raw_arcs.values() if 2 <= _arc_len(a, k + 1) <= k - 1])
    return piece_tree, {e: tr(a) for e, a in raw_arcs.items()}, tr((k, k))


def _branches_at_leaf(T: PlaneTree, pos: int, block) -> list:
    """Arcs of the branches remaining after removing the leaf at `pos`, which
    hangs from `block`, ordered with the branch ending at pos-1 first, then
    clockwise from pos+1."""
    npos = T.n + 1
    kids = T.node_children(block)
    around = [c if isinstance(c, tuple) else (c, c) for c in kids]
    # the arc above the vertex closes the clockwise cycle of its branches;
    # at the root it is the leaf at 0
    around.append(_complement((1, npos - 1) if block == ("root",) else block, npos))
    i = len(kids) if pos == 0 else kids.index(pos)
    rest = around[i + 1:] + around[:i]
    return rest[-1:] + rest[:-1]


# relative signs of the cut differentials; pinned by the d^2 = 0 and
# intertwining tests
_S_SIGN = -1
_DELTA_SIGN = -1


def _differential_component(trees: tuple, a: int, basis: CasimirBasis, out):
    T = trees[a]
    L = T.edges()
    npos = T.n + 1
    head = [(ci, e) for ci in range(a) for e in trees[ci].edges()]
    casimir = [((alpha, alpha_vee), dsign) for alpha, dsign, alpha_vee in basis.pairs]

    def emit(pieces, piece_expr, coeff):
        """Splice the pieces into the forest at slot `a` and emit the term,
        signed by the expression wedge `piece_expr` of (piece, edge) pairs."""
        comp = trees[:a] + tuple(pieces) + trees[a + 1:]
        tail = [(ci, e) for ci in range(a + len(pieces), len(comp))
                for e in comp[ci].edges()]
        f = OrientedForest(comp, 1, edge_order=head + [
            (a + pi, e) for pi, e in piece_expr] + tail)
        add_into(out, f.trees, coeff * f.sign)

    def cut(edge, rest, branches, closings, coeff):
        """Cut T into one piece per branch, each closed by a new leaf, once
        per (letters, sign) in `closings`.  Wedge order 'newfirst': the new
        edges, then each piece's surviving edges in turn; a single-edge piece
        whose lone edge realizes an inherited edge adds no new edge."""
        arcs = [_branch_arcs(T, br) for br in branches]
        groups = [[e for e in m if e != edge] for m in arcs]
        coeff *= perm_parity(rest, [e for g in groups for e in g])
        for letters, sign in closings:
            pieces, new, old = [], [], []
            for i, (br, x, m, g) in enumerate(zip(branches, letters, arcs, groups)):
                pt, mp, ne = _piece(T, br, x, m)
                pieces.append(pt)
                if len(g) < len(pt.edges()):
                    new.append((i, ne))
                old.extend((i, mp[e]) for e in g)
            emit(pieces, new + old, sign * coeff)

    for epos, edge in enumerate(L):
        g_par = -1 if (len(head) + epos) % 2 else 1
        rest = [e for e in L if e != edge]

        # (i) contraction of internal edges
        if edge[0] == "int":
            arcs = [iv for iv in T.intervals if iv != edge[1]]
            t_new, tr = PlaneTree.from_raw(T.letters(), arcs)
            emit([t_new], [(0, tr(T.edge_arc(e))) for e in rest], _DELTA_SIGN * g_par)

        # (ii) Casimir cut of every edge
        side = T.edge_arc(edge)
        cut(edge, rest, [side, _complement(side, npos)], casimir, g_par)

        # (iii) removal of S-decorated leaves
        if edge[0] == "leaf" and T.n > 1:
            letter = T.letters()[edge[1]]
            if letter.kind != "s":
                continue
            branches = _branches_at_leaf(T, edge[1], T._parent[epos])
            cut(edge, rest, branches, [((letter,) * len(branches), 1)],
                _S_SIGN * g_par)


def differential(v: ForestVector, basis: CasimirBasis) -> ForestVector:
    """The degree +1 differential d = d_contract + d_Casimir + d_S, d_S
    splitting at every point letter.

    All signs are permutation parities between canonical edge orders; see
    the module docstring for the cutting conventions.
    """
    total = {}
    for trees, coeff in v.terms.items():
        local = {}
        for a in range(len(trees)):
            _differential_component(trees, a, basis, local)
        for k, val in local.items():
            add_into(total, k, coeff * val)
    return ForestVector(total)


# ----------------------------------------------------------------------
# the cobracket on cyclic words
# ----------------------------------------------------------------------

class Wedge2(LinearCombination):
    """Element of Lambda^2 of the span of cyclic words."""

    __slots__ = ()

    def __init__(self, terms=None):
        """Keys (x, y) are stored with x < y: y ^ x = -(x ^ y), x ^ x = 0."""
        self.terms = self._summed(
            ((y, x), -Fraction(c)) if y < x else ((x, y), c)
            for (x, y), c in (terms or {}).items() if x != y)

    @staticmethod
    def pair(x: CyclicWord, y: CyclicWord, coeff=1) -> "Wedge2":
        return Wedge2({(x, y): Fraction(coeff)})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({x} ^ {y})"
                          for (x, y), c in sorted(self.terms.items(), key=str))


def _cobracket_word(w: CyclicWord, basis: CasimirBasis, c, acc: dict):
    """acc += c * delta(w), in place, keyed by the ordered pairs (x, y) of
    x ^ y as cut; `Wedge2` puts the keys in order."""
    rep = w.rep
    n1 = len(rep)
    # Casimir part: cut two different arcs (arc g sits after position g)
    for g1 in range(n1):
        for g2 in range(g1 + 1, n1):
            piece1 = [rep[p % n1] for p in range(g1 + 1, g2 + 1)]
            piece2 = [rep[p % n1] for p in range(g2 + 1, g1 + 1 + n1)]
            for alpha, dsign, alpha_vee in basis.pairs:
                add_into(acc, (CyclicWord(piece1 + [alpha]),
                               CyclicWord(piece2 + [alpha_vee])), dsign * c)
    # S part: cut at an S letter and a non-adjacent arc; the letter is copied
    # into both pieces and the piece ending at the S-cut goes first
    for t0 in range(n1):
        if rep[t0].kind != "s":
            continue
        for g in range(n1):
            if g == t0 or (g + 1) % n1 == t0:
                continue
            k1 = (t0 - g - 1) % n1
            k2 = (g - t0) % n1
            first = [rep[p % n1] for p in range(g + 1, g + 1 + k1)] + [rep[t0]]
            second = [rep[p % n1] for p in range(t0 + 1, t0 + 1 + k2)] + [rep[t0]]
            add_into(acc, (CyclicWord(first), CyclicWord(second)), c)


def cobracket(w: CyclicElement, basis: CasimirBasis) -> Wedge2:
    """delta = delta_Casimir + delta_S on cyclic words, delta_S cutting at
    every point letter."""
    acc = {}
    for cw, c in w.terms.items():
        _cobracket_word(cw, basis, c, acc)
    return Wedge2(acc)


def cobracket_squared(w: CyclicElement, basis: CasimirBasis) -> dict:
    """Chevalley extension of delta applied to delta(w); empty iff zero
    (co-Jacobi)."""
    out = {}

    def add3(a, b, c, coeff):
        """out += coeff * (a ^ b ^ c), keys sorted with the sorting sign."""
        if a == b or b == c or a == c:
            return
        if b < a:
            a, b, coeff = b, a, -coeff
        if c < b:
            b, c, coeff = c, b, -coeff
            if b < a:
                a, b, coeff = b, a, -coeff
        add_into(out, (a, b, c), coeff)

    deltas = {}   # delta of each word, computed once per call
    for (a, b), c in cobracket(w, basis).terms.items():
        for elem, other, c0 in ((a, b, c), (b, a, -c)):
            da = deltas.get(elem)
            if da is None:
                da = deltas[elem] = cobracket(
                    CyclicElement._from_canonical({elem: Fraction(1)}), basis)
            for (u, v), cc in da.terms.items():
                add3(u, v, other, c0 * cc)
    return {k: v for k, v in out.items() if v}


# ----------------------------------------------------------------------
# the tree-sum map F
# ----------------------------------------------------------------------

def tree_sum_map(w: CyclicElement) -> ForestVector:
    """F(W) = sum of all decorated plane trivalent trees with canonical
    orientation; the degree-1 part of the forest complex."""
    acc = {}
    for cw, c in w.terms.items():
        for f in enumerate_trivalent_trees(cw):
            add_into(acc, f.trees, c * f.sign)
    return ForestVector(acc)


def tree_sum_ext(x: Wedge2) -> ForestVector:
    """F on Lambda^2: A ^ B -> F(A) * F(B) as two-component forests."""
    acc = {}
    for (aw, bw), c in x.terms.items():
        for fa in enumerate_trivalent_trees(aw):
            for fb in enumerate_trivalent_trees(bw):
                forest = OrientedForest(list(fa.trees) + list(fb.trees),
                                        fa.sign * fb.sign)
                add_into(acc, forest.trees, c * forest.sign)
    return ForestVector(acc)


# ----------------------------------------------------------------------
# projection to the non-plane tree complex
# ----------------------------------------------------------------------

def _tree_adjacency(t: PlaneTree):
    """Vertex adjacency with edge labels; vertices are ('leaf', pos) and
    ('node', block).  Each node lists its parent edge, then its children in
    order; the root lists the leaf at 0 last."""
    ends = list(t.edge_ends().items())
    adj = {}
    for e, (u, v) in ends[1:] + ends[:1]:
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    return adj


def abstract_projection(v: ForestVector) -> dict:
    """Image in the complex of abstract (non-plane) decorated trees.

    Each tree is rooted at the leaf at position 0, whose letter is minimal
    in the canonical rotation, and children are sorted by their recursive
    shape keys; the orientation sign is the parity between the
    plane-canonical edge order and the abstract DFS order.  Intended for
    distinct leaf decorations (shuffle-relation checks), where the sorting is
    unambiguous.
    """
    out = {}
    for trees, coeff in v.terms.items():
        keys = []
        sign = 1
        for t in trees:
            adj = _tree_adjacency(t)
            letters = t.letters()

            def walk(vtx, parent_edge):
                """(shape key, edges below vtx in abstract DFS order) of the
                subtree hanging from vtx; children sorted stably by key."""
                if vtx[0] == "leaf":
                    return ("leaf", letters[vtx[1]]._key()), []
                subs = sorted((walk(w, e) + (e,) for e, w in adj[vtx]
                               if e != parent_edge), key=lambda sub: sub[0])
                return (("node", tuple(key for key, _, _ in subs)),
                        [x for _, below, e in subs for x in (e, *below)])

            (root_edge, top), = adj[("leaf", 0)]
            shape, below = walk(top, root_edge)
            keys.append((letters[0]._key(), shape))
            sign *= perm_parity([root_edge, *below], t.edges())
        key = tuple(sorted(keys))
        sign *= _reorder_parity(trees, sorted(range(len(trees)), key=lambda i: keys[i]))
        add_into(out, key, coeff * sign)
    return {k: c for k, c in out.items() if c}
