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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_algebra import (
    CyclicElement, CyclicWord, Letter, antihol_form, hol_form, sympl_p, sympl_q,
)

__all__ = [
    "PlaneTree", "OrientedForest", "ForestVector", "CasimirBasis", "Wedge2",
    "enumerate_trivalent_trees", "canonical_orientation", "differential",
    "cobracket", "cobracket_squared", "tree_sum_map", "tree_sum_ext",
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

    @staticmethod
    def curve_forms(genus: int) -> "CasimirBasis":
        pairs = []
        for i in range(1, genus + 1):
            pairs.append((hol_form(i), 1, antihol_form(i)))
            pairs.append((antihol_form(i), -1, hol_form(i)))
        return CasimirBasis(tuple(pairs))

    def h_letters(self) -> set:
        return {a for a, _, _ in self.pairs}


# ----------------------------------------------------------------------
# geometry helpers
# ----------------------------------------------------------------------

def _consecutive_arc(positions: frozenset, npos: int):
    """(start, end) of a proper consecutive cyclic arc, else None."""
    k = len(positions)
    if k == 0 or k >= npos:
        return None
    for s in positions:
        if (s - 1) % npos not in positions:
            if all((s + t) % npos in positions for t in range(k)):
                return (s, (s + k - 1) % npos)
            return None
    return None


def _perm_parity(seq_from: Sequence, seq_to: Sequence) -> int:
    index = {e: i for i, e in enumerate(seq_to)}
    perm = [index[e] for e in seq_from]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _children(intervals, lo: int, hi: int) -> list:
    """Direct children (intervals and singleton positions) of the laminar
    node spanning positions lo..hi, by increasing start position."""
    block = (lo, hi)
    inner = [iv for iv in intervals
             if lo <= iv[0] and iv[1] <= hi and iv != block]
    out, pos = [], lo
    while pos <= hi:
        tops = [iv for iv in inner if iv[0] == pos]
        if tops:
            iv = max(tops, key=lambda t: t[1])
            out.append(iv)
            pos = iv[1] + 1
        else:
            out.append(pos)
            pos += 1
    return out


def _dfs_order(npos: int, intervals: frozenset) -> list:
    """Canonical edge order: position-0 leaf first, then depth first with
    children by increasing start position.  Single-edge trees (npos == 2,
    no internal vertex) have exactly one edge."""
    if npos == 2 and not intervals:
        return [("leaf", 0)]

    order = [("leaf", 0)]

    def rec(block):
        for ch in _children(intervals, *block):
            if isinstance(ch, tuple):
                order.append(("int", ch))
                rec(ch)
            else:
                order.append(("leaf", ch))

    rec((1, npos - 1))
    return order


class PlaneTree:
    """Decorated plane tree in canonical form; construct via `from_raw`."""

    __slots__ = ("word", "intervals", "n", "null", "_key", "_edges", "_child")

    def __init__(self, word: CyclicWord, intervals: frozenset, null: bool):
        self.word = word
        self.intervals = intervals
        self.n = len(word) - 1
        self.null = null
        self._key = (word, tuple(sorted(intervals)), null)
        self._edges = None
        self._child = {}

    # -- canonical constructor ------------------------------------------
    @staticmethod
    def from_raw(letters: Sequence[Letter], arcs: Iterable[frozenset] = ()):
        """Canonicalize a raw boundary sequence plus edge arcs.

        Returns (tree, translate) where translate maps raw arc frozensets
        (including singletons {p} for leaf edges) to canonical edge ids.
        """
        letters = list(letters)
        npos = len(letters)
        if npos < 2:
            raise ValueError("a tree needs at least two leaves")
        arcs = [frozenset(a) for a in arcs]
        word = CyclicWord(letters)
        rots = [r for r in range(npos)
                if tuple(letters[(r + t) % npos] for t in range(npos)) == word.rep]

        def encode(r):
            ivs = []
            for a in arcs:
                if not 2 <= len(a) <= npos - 2:
                    return None
                shifted = frozenset((x - r) % npos for x in a)
                side = shifted if 0 not in shifted else frozenset(range(npos)) - shifted
                arc = _consecutive_arc(side, npos)
                if arc is None or arc[0] > arc[1]:
                    return None
                ivs.append(arc)
            return tuple(sorted(ivs))

        encoded = {r: encode(r) for r in rots}
        valid = {r: k for r, k in encoded.items() if k is not None}
        if not valid:
            raise ValueError("arcs do not form a plane tree over this word")
        best_key = min(valid.values())
        winners = sorted(r for r, k in valid.items() if k == best_key)
        r0 = winners[0]
        intervals = frozenset(best_key)
        _check_laminar(intervals)

        def translate_with(r):
            def tr(a: frozenset):
                if npos == 2:
                    return ("leaf", 0)
                shifted = frozenset((x - r) % npos for x in a)
                if len(shifted) == 1:
                    (p,) = shifted
                    return ("leaf", p)
                if len(shifted) == npos - 1:
                    (p,) = frozenset(range(npos)) - shifted
                    return ("leaf", p)
                side = shifted if 0 not in shifted else frozenset(range(npos)) - shifted
                arc = _consecutive_arc(side, npos)
                return ("int", arc)
            return tr

        # decorated automorphisms = rotations tying the minimal encoding;
        # an odd edge permutation collapses the orientation torsor
        null = False
        order0 = _dfs_order(npos, intervals)
        tr0 = translate_with(r0)
        if npos > 2:
            for r in winners[1:]:
                trr = translate_with(r)
                image = []
                for e in order0:
                    if e[0] == "leaf":
                        raw = frozenset([(e[1] + r0) % npos])
                    else:
                        i, j = e[1]
                        raw = frozenset((x + r0) % npos for x in range(i, j + 1))
                    image.append(trr(raw))
                if _perm_parity(image, order0) < 0:
                    null = True
                    break
        tree = PlaneTree(word, intervals, null)
        return tree, tr0

    # -- structure --------------------------------------------------------
    def letters(self) -> tuple:
        return self.word.rep

    def edges(self) -> list:
        if self._edges is None:
            self._edges = _dfs_order(self.n + 1, self.intervals)
        return list(self._edges)

    def edge_arc(self, edge) -> frozenset:
        kind, val = edge
        if kind == "leaf":
            return frozenset([val])
        i, j = val
        return frozenset(range(i, j + 1))

    def node_children(self, block) -> list:
        """Direct children (intervals and singleton positions) of a laminar
        node; block is ('root',) or an interval."""
        if block in self._child:
            return self._child[block]
        lo, hi = (1, self.n) if block == ("root",) else block
        out = self._child[block] = _children(self.intervals, lo, hi)
        return out

    def vertex_valencies(self) -> list:
        if self.n == 1:
            return []
        out = [len(self.node_children(("root",))) + 1]
        for iv in sorted(self.intervals):
            out.append(len(self.node_children(iv)) + 1)
        return out

    def is_trivalent(self) -> bool:
        return all(v == 3 for v in self.vertex_valencies())

    def degree(self) -> int:
        return sum(v - 3 for v in self.vertex_valencies()) + 1

    def __eq__(self, other):
        return isinstance(other, PlaneTree) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other: "PlaneTree"):
        return (self.word, sorted(self.intervals)) < (other.word, sorted(other.intervals))

    def __repr__(self):
        ivs = ",".join(f"{i}-{j}" for i, j in sorted(self.intervals))
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


def _check_laminar(intervals):
    for (a, b), (c, d) in itertools.combinations(sorted(intervals), 2):
        inside = (c >= a and d <= b) or (a >= c and b <= d)
        disjoint = b < c or d < a
        if not (inside or disjoint):
            raise ValueError("edge arcs cross; not a plane tree")


class OrientedForest:
    """Multiset of plane trees with a signed edge ordering, stored with
    components sorted and the orientation deviation absorbed into `sign`."""

    __slots__ = ("trees", "sign")

    def __init__(self, trees: Sequence[PlaneTree], sign: int = 1,
                 edge_order: list | None = None):
        trees = list(trees)
        if edge_order is not None:
            canonical = [(ci, e) for ci, t in enumerate(trees) for e in t.edges()]
            sign *= _perm_parity(edge_order, canonical)
        perm = sorted(range(len(trees)), key=lambda i: (trees[i]._key, i))
        flat_old = [(ci, e) for ci, t in enumerate(trees) for e in t.edges()]
        flat_new = [(ci, e) for ci in perm for e in trees[ci].edges()]
        if flat_old:
            sign *= _perm_parity(flat_old, flat_new)
        self.trees = tuple(trees[i] for i in perm)
        self.sign = sign

    def degree(self) -> int:
        return sum(t.degree() for t in self.trees)

    def num_edges(self) -> int:
        return sum(len(t.edges()) for t in self.trees)

    def is_null(self) -> bool:
        if any(t.null for t in self.trees):
            return True
        # repeated odd component: T ^ T = 0
        for t1, t2 in zip(self.trees, self.trees[1:]):
            if t1 == t2 and len(t1.edges()) % 2:
                return True
        return False

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return s + " u ".join(map(repr, self.trees))


class ForestVector:
    """Rational combination of oriented forests; orientation signs absorbed,
    null forests dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if not v or any(t.null for t in k):
                continue
            if any(t1 == t2 and len(t1.edges()) % 2
                   for t1, t2 in zip(k, k[1:])):
                continue
            self.terms[k] = v

    @staticmethod
    def from_forest(f: OrientedForest, coeff=1) -> "ForestVector":
        if f.is_null():
            return ForestVector()
        return ForestVector({f.trees: Fraction(coeff) * f.sign})

    def __add__(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + v
        return ForestVector({k: v for k, v in t.items() if v})

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, s):
        s = Fraction(s)
        return ForestVector({k: s * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return isinstance(other, ForestVector) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

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
        arcs = [frozenset(range(i, j + 1)) for i, j in fam]
        tree, _ = PlaneTree.from_raw(letters, arcs)
        out.append(OrientedForest([tree]))
    return out


def canonical_orientation(t: PlaneTree) -> OrientedForest:
    if not t.is_trivalent():
        raise ValueError("canonical_orientation needs a trivalent tree")
    return OrientedForest([t])


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------

def _piece(tree: PlaneTree, branch: frozenset, extra: Letter):
    """Subtree spanned by the boundary arc `branch` plus one new leaf `extra`
    closing the arc.  Returns (piece_tree, member_test, edge_map, new_edge_id)
    with edge_map translating old edge ids into the piece."""
    npos = tree.n + 1
    arc = _consecutive_arc(branch, npos)
    if arc is None:
        raise ValueError("branch must be a cyclic arc")
    s = arc[0]
    order = [(s + t) % npos for t in range(len(branch))]
    letters = [tree.letters()[p] for p in order] + [extra]
    pos_map = {p: i for i, p in enumerate(order)}
    new_npos = len(letters)
    full = frozenset(range(npos))
    raw_arcs = {}
    for e in tree.edges():
        side = tree.edge_arc(e)
        if side <= branch:
            raw = frozenset(pos_map[p] for p in side)
        elif (full - side) <= branch:
            raw = frozenset(range(new_npos)) - frozenset(pos_map[p] for p in (full - side))
        else:
            continue
        raw_arcs[e] = raw
    piece_tree, tr = PlaneTree.from_raw(
        letters, [a for a in raw_arcs.values() if 2 <= len(a) <= new_npos - 2])
    edge_map = {e: tr(a) for e, a in raw_arcs.items()}
    new_eid = tr(frozenset([new_npos - 1]))
    return piece_tree, edge_map, new_eid


def _branches_at_leaf(T: PlaneTree, pos: int) -> list:
    """Arcs of the branches remaining after removing the leaf at `pos`,
    ordered with the branch ending at pos-1 first, then clockwise."""
    npos = T.n + 1
    if pos == 0:
        blocks = T.node_children(("root",))
        arcs = [frozenset([b]) if not isinstance(b, tuple)
                else frozenset(range(b[0], b[1] + 1)) for b in blocks]
    else:
        node = ("root",)
        for iv in sorted(T.intervals, key=lambda iv: iv[1] - iv[0]):
            if iv[0] <= pos <= iv[1]:
                if pos in [c for c in T.node_children(iv) if not isinstance(c, tuple)]:
                    node = iv
                    break
        arcs = []
        for c in T.node_children(node):
            if not isinstance(c, tuple) and c == pos:
                continue
            arcs.append(frozenset([c]) if not isinstance(c, tuple)
                        else frozenset(range(c[0], c[1] + 1)))
        span = frozenset(range(1, npos)) if node == ("root",) \
            else frozenset(range(node[0], node[1] + 1))
        parent_arc = frozenset(range(npos)) - span
        if parent_arc:
            arcs.append(parent_arc)

    def end_of(arc):
        return _consecutive_arc(arc, npos)[1]

    def start_of(arc):
        return _consecutive_arc(arc, npos)[0]

    prev = (pos - 1) % npos
    last = [a for a in arcs if end_of(a) == prev]
    rest = sorted((a for a in arcs if end_of(a) != prev),
                  key=lambda a: (start_of(a) - (pos + 1)) % npos)
    return last + rest


def _forest_add(acc: dict, f: OrientedForest, c) -> None:
    """acc += c * f in place; null forests are dropped."""
    if f.is_null():
        return
    key = f.trees
    val = c * f.sign
    old = acc.get(key)
    acc[key] = val if old is None else old + val


def _join_pieces(pieces, edge_maps, new_ids, groups) -> list:
    """Wedge-expression order of the cut pieces' edges as (piece, edge) pairs:
    the new edges first, E_1 ^ E_2 ^ ... ^ X_1 ^ X_2 ^ ... ('newfirst').
    A single-edge piece whose lone edge realizes an inherited edge
    contributes no separate new-edge factor.
    """
    mapped, inserts = [], []
    for i, (pt, mp, ne, grp) in enumerate(zip(pieces, edge_maps, new_ids, groups)):
        block = [(i, mp[e]) for e in grp]
        mapped.append(block)
        inserts.append(None if len(block) == len(pt.edges()) else (i, ne))
    ins = [x for x in inserts if x is not None]
    return ins + [e for block in mapped for e in block]


# relative signs of the cut differentials; pinned by the d^2 = 0 and
# intertwining tests
_S_SIGN = -1
_DELTA_SIGN = -1


def _differential_component(trees: tuple, a: int, basis: CasimirBasis,
                            s_letters, out):
    T = trees[a]
    edges_before = sum(len(t.edges()) for t in trees[:a])
    L = T.edges()
    npos = T.n + 1
    full = frozenset(range(npos))

    def assemble(pieces, flat_expr, coeff):
        """Splice the pieces into the forest at slot `a` and emit the term;
        sign = parity of (expression order -> canonical order).  flat_expr
        lists the piece edges as (piece_index, edge)."""
        comp, expr, canon = [], [], []
        for ci, t in enumerate(trees):
            if ci == a:
                base = len(comp)
                for pt in pieces:
                    idx = len(comp)
                    comp.append(pt)
                    canon.extend((idx, e) for e in pt.edges())
                expr.extend((base + pi, e) for pi, e in flat_expr)
            else:
                idx = len(comp)
                comp.append(t)
                expr.extend((idx, e) for e in t.edges())
                canon.extend((idx, e) for e in t.edges())
        _forest_add(out, OrientedForest(comp), coeff * _perm_parity(expr, canon))

    for epos, edge in enumerate(L):
        g_par = -1 if (edges_before + epos) % 2 else 1
        rest = [e for e in L if e != edge]

        # (i) contraction of internal edges
        if edge[0] == "int":
            arcs = [frozenset(range(i, j + 1)) for i, j in T.intervals
                    if (i, j) != edge[1]]
            t_new, tr = PlaneTree.from_raw(list(T.letters()), arcs)
            emap = {e: tr(T.edge_arc(e)) for e in rest}
            assemble([t_new], [(0, emap[e]) for e in rest], _DELTA_SIGN * g_par)

        # (ii) Casimir cut of every edge
        side1 = T.edge_arc(edge)
        side2 = full - side1
        if side1 and side2 and T.n >= 1:
            groups = [[e for e in rest if _edge_in(T, e, side1)],
                      [e for e in rest if _edge_in(T, e, side2)]]
            p_group = _perm_parity(rest, groups[0] + groups[1]) if rest else 1
            for alpha, dsign, alpha_vee in basis.pairs:
                p1, m1, ne1 = _piece(T, side1, alpha)
                p2, m2, ne2 = _piece(T, side2, alpha_vee)
                flat = _join_pieces([p1, p2], [m1, m2], [ne1, ne2], groups)
                assemble([p1, p2], flat, dsign * g_par * p_group)

        # (iii) removal of S-decorated leaves
        if edge[0] == "leaf" and T.n > 1:
            letter = T.letters()[edge[1]]
            if letter.kind != "s" or letter not in s_letters:
                continue
            branches = _branches_at_leaf(T, edge[1])
            groups = [[e for e in rest if _edge_in(T, e, br)] for br in branches]
            p_group = _perm_parity(rest, [e for g in groups for e in g]) if rest else 1
            pieces, maps, news = [], [], []
            for br in branches:
                pt, mp, ne = _piece(T, br, letter)
                pieces.append(pt)
                maps.append(mp)
                news.append(ne)
            flat = _join_pieces(pieces, maps, news, groups)
            assemble(pieces, flat, _S_SIGN * g_par * p_group)


def _edge_in(T: PlaneTree, e, branch: frozenset) -> bool:
    side = T.edge_arc(e)
    full = frozenset(range(T.n + 1))
    return side <= branch or (full - side) <= branch


def differential(v: ForestVector, basis: CasimirBasis,
                 s_letters: set | None = None) -> ForestVector:
    """The degree +1 differential d = d_contract + d_Casimir + d_S.

    s_letters defaults to every point-type letter in the forest.  All signs
    are permutation parities between canonical edge orders; see the module
    docstring for the cutting conventions.
    """
    total = {}
    for trees, coeff in v.terms.items():
        sl = s_letters if s_letters is not None else \
            {x for t in trees for x in t.letters() if x.kind == "s"}
        local = {}
        for a in range(len(trees)):
            _differential_component(trees, a, basis, sl, local)
        for k, val in local.items():
            total[k] = total.get(k, Fraction(0)) + coeff * val
    return ForestVector({k: c for k, c in total.items() if c})


# ----------------------------------------------------------------------
# the cobracket on cyclic words
# ----------------------------------------------------------------------

class Wedge2:
    """Element of Lambda^2 of the span of cyclic words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        for (x, y), c in (terms or {}).items():
            c = Fraction(c)
            if not c or x == y:
                continue
            if y < x:
                x, y, c = y, x, -c
            t[(x, y)] = t.get((x, y), Fraction(0)) + c
        self.terms = {k: v for k, v in t.items() if v}

    @staticmethod
    def pair(x: CyclicWord, y: CyclicWord, coeff=1) -> "Wedge2":
        return Wedge2({(x, y): Fraction(coeff)})

    def __add__(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, Fraction(0)) + v
        return Wedge2({k: v for k, v in t.items() if v})

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, s):
        s = Fraction(s)
        return Wedge2({k: s * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        return isinstance(other, Wedge2) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({x} ^ {y})"
                          for (x, y), c in sorted(self.terms.items(), key=str))


def _wedge_add(t: dict, x: CyclicWord, y: CyclicWord, c) -> None:
    """t += c * (x ^ y) in place, keeping the x < y keys of `Wedge2`."""
    if x == y:
        return
    if y < x:
        x, y, c = y, x, -c
    old = t.get((x, y))
    t[(x, y)] = c if old is None else old + c


def _cobracket_word(w: CyclicWord, basis: CasimirBasis, s_letters, c, acc: dict):
    """acc += c * delta(w), in place."""
    rep = w.rep
    n1 = len(rep)
    # Casimir part: cut two different arcs (arc g sits after position g)
    for g1 in range(n1):
        for g2 in range(g1 + 1, n1):
            piece1 = [rep[p % n1] for p in range(g1 + 1, g2 + 1)]
            piece2 = [rep[p % n1] for p in range(g2 + 1, g1 + 1 + n1)]
            for alpha, dsign, alpha_vee in basis.pairs:
                _wedge_add(acc, CyclicWord(piece1 + [alpha]),
                           CyclicWord(piece2 + [alpha_vee]), dsign * c)
    # S part: cut at an S letter and a non-adjacent arc; the letter is copied
    # into both pieces and the piece ending at the S-cut goes first
    for t0 in range(n1):
        if rep[t0].kind != "s" or rep[t0] not in s_letters:
            continue
        for g in range(n1):
            if g == t0 or (g + 1) % n1 == t0:
                continue
            k1 = (t0 - g - 1) % n1
            k2 = (g - t0) % n1
            first = [rep[p % n1] for p in range(g + 1, g + 1 + k1)] + [rep[t0]]
            second = [rep[p % n1] for p in range(t0 + 1, t0 + 1 + k2)] + [rep[t0]]
            _wedge_add(acc, CyclicWord(first), CyclicWord(second), c)


def cobracket(w: CyclicElement, basis: CasimirBasis,
              s_letters: set | None = None) -> Wedge2:
    """delta = delta_Casimir + delta_S on cyclic words."""
    acc = {}
    for cw, c in w.terms.items():
        sl = s_letters if s_letters is not None else {x for x in cw.rep if x.kind == "s"}
        _cobracket_word(cw, basis, sl, c, acc)
    return Wedge2(acc)


def cobracket_squared(w: CyclicElement, basis: CasimirBasis,
                      s_letters: set | None = None) -> dict:
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
        old = out.get((a, b, c))
        out[(a, b, c)] = coeff if old is None else old + coeff

    deltas = {}   # delta of each word, computed once per call
    for (a, b), c in cobracket(w, basis, s_letters).terms.items():
        for elem, other, c0 in ((a, b, c), (b, a, -c)):
            da = deltas.get(elem)
            if da is None:
                da = deltas[elem] = cobracket(CyclicElement({elem: Fraction(1)}),
                                              basis, s_letters)
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
            _forest_add(acc, f, c)
    return ForestVector(acc)


def tree_sum_ext(x: Wedge2) -> ForestVector:
    """F on Lambda^2: A ^ B -> F(A) * F(B) as two-component forests."""
    acc = {}
    for (aw, bw), c in x.terms.items():
        for fa in enumerate_trivalent_trees(aw):
            for fb in enumerate_trivalent_trees(bw):
                forest = OrientedForest(list(fa.trees) + list(fb.trees),
                                        fa.sign * fb.sign)
                _forest_add(acc, forest, c)
    return ForestVector(acc)


# ----------------------------------------------------------------------
# projection to the non-plane tree complex
# ----------------------------------------------------------------------

def _tree_adjacency(t: PlaneTree):
    """Vertex adjacency with edge labels; vertices are ('leaf', pos) and
    ('node', block)."""
    edges = {}
    if t.n == 1:
        edges[("leaf", 0)] = [(("leaf", 0), ("leaf", 1))]
        return {("leaf", 0): [(("leaf", 0), ("leaf", 1))],
                ("leaf", 1): [(("leaf", 0), ("leaf", 0))]}
    adj = {}

    def add(u, v, e):
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))

    def walk(block):
        bid = ("node", block)
        for ch in t.node_children(block):
            if isinstance(ch, tuple):
                add(bid, ("node", ch), ("int", ch))
                walk(ch)
            else:
                add(bid, ("leaf", ch), ("leaf", ch))

    walk(("root",))
    add(("node", ("root",)), ("leaf", 0), ("leaf", 0))
    return adj


def abstract_projection(v: ForestVector) -> dict:
    """Image in the complex of abstract (non-plane) decorated trees.

    Each tree is re-rooted at its minimal decoration and children are sorted
    by their recursive shape keys; the orientation sign is the parity between
    the plane-canonical edge order and the abstract DFS order.  Intended for
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
            root = min((("leaf", p) for p in range(t.n + 1)),
                       key=lambda s: letters[s[1]]._key())
            order = []

            def rec(vtx, parent_edge):
                shapes = []
                for e, w in adj[vtx]:
                    if e == parent_edge:
                        continue
                    shapes.append((self_key(w, e), e, w))
                shapes.sort(key=lambda x: x[0])
                for sk, e, w in shapes:
                    order.append(e)
                    rec(w, e)
                return shapes

            def self_key(vtx, parent_edge):
                if vtx[0] == "leaf":
                    return ("leaf", letters[vtx[1]]._key())
                subs = []
                for e, w in adj[vtx]:
                    if e == parent_edge:
                        continue
                    subs.append(self_key(w, e))
                return ("node", tuple(sorted(subs)))

            root_edge = ("leaf", root[1]) if t.n > 1 else ("leaf", 0)
            order.append(root_edge)
            other = [w for e, w in adj[root] if e == root_edge]
            if t.n > 1:
                rec(other[0], root_edge)
            keys.append((letters[root[1]]._key(), self_key(other[0], root_edge)
                         if t.n > 1 else ("leaf", letters[1]._key())))
            sign *= _perm_parity(order, t.edges())
        key = tuple(sorted(keys))
        # component reorder parity by edge blocks
        perm = sorted(range(len(trees)), key=lambda i: keys[i])
        flat_old = [(ci, e) for ci, t in enumerate(trees) for e in t.edges()]
        flat_new = [(ci, e) for ci in perm for e in trees[ci].edges()]
        if flat_old:
            sign *= _perm_parity(flat_old, flat_new)
        out[key] = out.get(key, Fraction(0)) + coeff * sign
    return {k: c for k, c in out.items() if c}
