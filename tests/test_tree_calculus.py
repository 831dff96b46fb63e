import random

import pytest

from hodgecor.exact_algebra import (
    CyclicElement, CyclicWord, point, shuffle_sum,
)
from hodgecor.tree_calculus import (
    CasimirBasis, ForestVector, OrientedForest, PlaneTree, Wedge2,
    _branch_arcs, _branches_at_leaf, _piece, _structure, abstract_projection,
    cobracket, cobracket_squared, differential, enumerate_trivalent_trees,
    tree_sum_ext, tree_sum_map,
)

BASIS = CasimirBasis.symplectic(1)
S3 = [point(s) for s in "xyz"]
ALPHABET = S3 + [ell for ell, _, _ in BASIS.pairs]


def distinct_word(n):
    return CyclicWord([point(str(i)) for i in range(n)])


def random_words(seed, count, maxlen, alphabet=None):
    rnd = random.Random(seed)
    alphabet = alphabet or ALPHABET
    out = []
    for _ in range(count):
        length = rnd.randint(2, maxlen)
        out.append([rnd.choice(alphabet) for _ in range(length)])
    return out


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 2), (5, 5), (6, 14), (8, 132)])
    def test_catalan_counts(self, n, count):
        assert len(enumerate_trivalent_trees(distinct_word(n))) == count

    def test_short_words_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trivalent_trees([point("a")])

    def test_serialize_stable(self):
        trees = enumerate_trivalent_trees(distinct_word(4))
        forms = sorted(t.trees[0].serialize() for t in trees)
        assert forms == [
            "s:0((s:1 s:2) s:3)|leaf:0,int:(1, 2),leaf:1,leaf:2,leaf:3",
            "s:0(s:1 (s:2 s:3))|leaf:0,leaf:1,int:(2, 3),leaf:2,leaf:3",
        ]


def reference_structure(npos, intervals):
    """(children, order, parent) block by block, as the tree walkers did it
    before the one-pass `_structure`: each block's children from a scan of
    all intervals, the edge order depth first, parents from the same walk."""
    def kids(lo, hi):
        inner = [iv for iv in intervals
                 if lo <= iv[0] and iv[1] <= hi and iv != (lo, hi)]
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

    root = ("root",)
    if npos == 2:
        return {root: [1]}, (("leaf", 0),), ()
    children, order, parent = {}, [("leaf", 0)], [root]

    def rec(block):
        children[block] = kids(*((1, npos - 1) if block == root else block))
        for ch in children[block]:
            order.append(("int", ch) if isinstance(ch, tuple) else ("leaf", ch))
            parent.append(block)
            if isinstance(ch, tuple):
                rec(ch)

    rec(root)
    return children, tuple(order), tuple(parent)


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


def arc_positions(arc, npos):
    """The positions of the cyclic interval `arc` = (start, end)."""
    return frozenset((arc[0] + t) % npos
                     for t in range((arc[1] - arc[0]) % npos + 1))


def reference_branches(T, pos):
    """Branch arcs at the leaf `pos` as found before: the leaf's block from
    a scan of the intervals, the arcs as position sets sorted by their
    cyclic ends, returned as intervals."""
    npos = T.n + 1
    children = reference_structure(npos, T.intervals)[0]

    def arc(b):
        return frozenset([b]) if not isinstance(b, tuple) \
            else frozenset(range(b[0], b[1] + 1))

    if pos == 0:
        arcs = [arc(b) for b in children[("root",)]]
    else:
        node = ("root",)
        for iv in sorted(T.intervals, key=lambda iv: iv[1] - iv[0]):
            if iv[0] <= pos <= iv[1] and pos in children[iv]:
                node = iv
                break
        arcs = [arc(c) for c in children[node] if c != pos]
        span = frozenset(range(1, npos)) if node == ("root",) else arc(node)
        arcs.append(frozenset(range(npos)) - span)
    prev = (pos - 1) % npos
    last = [a for a in arcs if _consecutive_arc(a, npos)[1] == prev]
    rest = sorted((a for a in arcs if _consecutive_arc(a, npos)[1] != prev),
                  key=lambda a: (_consecutive_arc(a, npos)[0] - (pos + 1)) % npos)
    return [_consecutive_arc(a, npos) for a in last + rest]


def reference_piece(T, branch, extra):
    """`_piece` on position sets: the branch positions renumbered from 0,
    the new leaf after them, and an edge whose complement lies in the branch
    mapped to the complement of its renumbered complement."""
    npos = T.n + 1
    full = frozenset(range(npos))
    br = arc_positions(branch, npos)
    order = [(branch[0] + t) % npos for t in range(len(br))]
    letters = [T.letters()[p] for p in order] + [extra]
    pos_map = {p: i for i, p in enumerate(order)}
    new_npos = len(letters)
    raw = {}
    for e in T.edges():
        side = arc_positions(T.edge_arc(e), npos)
        if side <= br:
            raw[e] = frozenset(pos_map[p] for p in side)
        elif full - side <= br:
            raw[e] = frozenset(range(new_npos)) \
                - frozenset(pos_map[p] for p in full - side)
    arcs = {e: _consecutive_arc(a, new_npos) for e, a in raw.items()}
    tree, tr = PlaneTree.from_raw(
        letters, [arcs[e] for e, a in raw.items() if 2 <= len(a) <= new_npos - 2])
    return tree, {e: tr(a) for e, a in arcs.items()}, tr((new_npos - 1, new_npos - 1))


@pytest.fixture(scope="module")
def structure_trees():
    """Every trivalent tree on 2-8 distinct letters, and every tree in the
    differentials of the trees of distinct and random words of up to 6
    letters: contracted trees of higher valency and the cut pieces."""
    trees = [f.trees[0] for m in range(2, 9)
             for f in enumerate_trivalent_trees(distinct_word(m))]
    words = [distinct_word(m) for m in range(2, 7)] \
        + [CyclicWord(w) for w in random_words(21, 12, 6)]
    for w in words:
        for f in enumerate_trivalent_trees(w):
            dv = differential(ForestVector.from_forest(f), BASIS)
            trees.extend(t for k in dv.terms for t in k)
    assert any(v != 3 for t in trees for v in t.vertex_valencies())
    return trees


class TestStructure:
    def test_crossing_arcs_rejected(self):
        letters = [point(str(i)) for i in range(5)]
        with pytest.raises(ValueError, match="cross"):
            PlaneTree.from_raw(letters, [(1, 2), (2, 3)])

    def test_matches_block_walk(self, structure_trees):
        for t in structure_trees:
            want = reference_structure(t.n + 1, t.intervals)
            assert _structure(t.n + 1, t.intervals) == want
            children, order, _ = want
            assert t.edges() == list(order)
            assert all(t.node_children(b) == c for b, c in children.items())

    def test_branches_match_arc_sort(self, structure_trees):
        for t in structure_trees:
            if t.n == 1:
                continue
            ends = t.edge_ends()
            for pos in range(t.n + 1):
                _, (_, block) = ends[("leaf", pos)]
                assert _branches_at_leaf(t, pos, block) == reference_branches(t, pos)

    def test_piece_matches_position_sets(self, structure_trees):
        extra = point("new")
        wrapped = 0
        for t in structure_trees:
            npos = t.n + 1
            for e in t.edges():
                side = t.edge_arc(e)
                other = ((side[1] + 1) % npos, (side[0] - 1) % npos)
                for branch in (side, other):
                    wrapped += branch[0] > branch[1]
                    got_tree, got_map, got_new = _piece(
                        t, branch, extra, _branch_arcs(t, branch))
                    want_tree, want_map, want_new = reference_piece(t, branch, extra)
                    assert got_tree.serialize() == want_tree.serialize()
                    assert got_map == want_map
                    assert got_new == want_new
        assert wrapped


class TestOrientation:
    def test_tripod_canonical(self):
        (f,) = enumerate_trivalent_trees(distinct_word(3))
        assert f.sign == 1
        t = f.trees[0]
        assert t.edges() == [("leaf", 0), ("leaf", 1), ("leaf", 2)]

    def test_torsor_axiom(self):
        (f,) = enumerate_trivalent_trees(distinct_word(3))
        t = f.trees[0]
        swapped = OrientedForest([t], 1, edge_order=[
            (0, ("leaf", 1)), (0, ("leaf", 0)), (0, ("leaf", 2))])
        assert swapped.sign == -1

    def test_null_orientation_dropped(self):
        # any tree whose decorated automorphism is odd on edges is zero;
        # ForestVector silently drops such generators
        v = tree_sum_map(CyclicElement.from_word([point("a")] * 4))
        assert all(not t.null for k in v.terms for t in k)


class TestDifferential:
    def test_degree_raises_by_one(self):
        v = tree_sum_map(CyclicElement.from_word(S3))
        dv = differential(v, BASIS)
        assert v.degrees() == {1} and dv.degrees() == {2}

    def test_single_edge_has_no_contraction(self):
        v = tree_sum_map(CyclicElement.from_word([point("x"), point("y")]))
        dv = differential(v, BASIS)
        # only Casimir cuts: every term is a two-component forest
        assert dv.terms
        assert all(len(k) == 2 for k in dv.terms)

    def test_tripod_s_cut_fixture(self):
        v = tree_sum_map(CyclicElement.from_word(S3))
        dv = differential(v, BASIS)
        rendered = sorted(
            f"{c}*" + "|".join(t.serialize() for t in k)
            for k, c in dv.terms.items())
        # frozen regression fixture: three point-split terms plus six Casimir
        # cut terms (each leaf edge against both dual pairs)
        assert rendered == [
            '-1*s:x(q1)|leaf:0|s:y(s:z p1)|leaf:0,leaf:1,leaf:2',
            '-1*s:x(s:y)|leaf:0|s:x(s:z)|leaf:0',
            '-1*s:x(s:z)|leaf:0|s:y(s:z)|leaf:0',
            '-1*s:y(q1)|leaf:0|s:x(p1 s:z)|leaf:0,leaf:1,leaf:2',
            '-1*s:z(q1)|leaf:0|s:x(s:y p1)|leaf:0,leaf:1,leaf:2',
            '1*s:x(p1)|leaf:0|s:y(s:z q1)|leaf:0,leaf:1,leaf:2',
            '1*s:x(s:y)|leaf:0|s:y(s:z)|leaf:0',
            '1*s:y(p1)|leaf:0|s:x(q1 s:z)|leaf:0,leaf:1,leaf:2',
            '1*s:z(p1)|leaf:0|s:x(s:y q1)|leaf:0,leaf:1,leaf:2',
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d_squared_zero(self, seed):
        rnd = random.Random(seed)
        for w in random_words(seed, 10, 6):
            trees = enumerate_trivalent_trees(CyclicWord(w))
            v = ForestVector.from_forest(rnd.choice(trees))
            if not v.terms:
                continue
            assert not differential(differential(v, BASIS), BASIS)

    def test_d_squared_zero_two_components(self):
        rnd = random.Random(5)
        for _ in range(6):
            w1 = random_words(rnd.randint(0, 99), 1, 5)[0]
            w2 = random_words(rnd.randint(100, 199), 1, 4)[0]
            f1 = rnd.choice(enumerate_trivalent_trees(CyclicWord(w1)))
            f2 = rnd.choice(enumerate_trivalent_trees(CyclicWord(w2)))
            f = OrientedForest(list(f1.trees) + list(f2.trees), f1.sign * f2.sign)
            v = ForestVector.from_forest(f)
            if v.terms:
                assert not differential(differential(v, BASIS), BASIS)

    def test_d_squared_zero_higher_valency(self):
        rnd = random.Random(9)
        for w in random_words(11, 8, 6):
            v0 = tree_sum_map(CyclicElement.from_word(w))
            dv = differential(v0, BASIS)
            for k in sorted(dv.terms, key=str)[:2]:
                v = ForestVector({k: 1})
                assert not differential(differential(v, BASIS), BASIS)


class TestGenusTwo:
    """d^2 = 0, dF = F delta and co-Jacobi with the Casimir element of a
    genus-2 curve, on short words with p2/q2 letters."""

    BASIS2 = CasimirBasis.symplectic(2)

    @pytest.fixture(scope="class")
    def words(self):
        alphabet = S3[:2] + [ell for ell, _, _ in self.BASIS2.pairs]
        words = random_words(12, 8, 4, alphabet)
        assert any(ell.kind in "pq" and ell.label == 2 for w in words for ell in w)
        return words

    def test_d_squared_zero(self, words):
        for w in words:
            v = tree_sum_map(CyclicElement.from_word(w))
            assert not differential(differential(v, self.BASIS2), self.BASIS2)

    def test_intertwines_differential(self, words):
        for w in words:
            W = CyclicElement.from_word(w)
            assert differential(tree_sum_map(W), self.BASIS2) \
                == tree_sum_ext(cobracket(W, self.BASIS2))

    def test_co_jacobi(self, words):
        for w in words:
            assert not cobracket_squared(CyclicElement.from_word(w), self.BASIS2)


class TestCobracket:
    def test_two_letter_example(self):
        # delta C(s0 s1) = sum_k C(s0 alpha_k) ^ C(alpha_k_vee s1)
        s0, s1 = point("0"), point("1")
        got = cobracket(CyclicElement.from_word([s0, s1]), BASIS)
        expected = Wedge2()
        for alpha, dsign, alpha_vee in BASIS.pairs:
            expected = expected + Wedge2.pair(
                CyclicWord([s0, alpha]), CyclicWord([alpha_vee, s1]), dsign)
        assert got == expected

    def test_three_letter_example(self):
        # Cycle(C(s0 s1 a) ^ C(a_vee s2) + C(s0 s1) ^ C(s1 s2))
        s = [point(str(i)) for i in range(3)]
        got = cobracket(CyclicElement.from_word(s), BASIS)
        expected = Wedge2()
        for i in range(3):
            a, b, c = s[i % 3], s[(i + 1) % 3], s[(i + 2) % 3]
            for alpha, dsign, alpha_vee in BASIS.pairs:
                expected = expected + Wedge2.pair(
                    CyclicWord([a, b, alpha]), CyclicWord([alpha_vee, c]), dsign)
            expected = expected + Wedge2.pair(
                CyclicWord([a, b]), CyclicWord([b, c]))
        assert got == expected

    def test_operand_unchanged(self):
        w = CyclicElement.from_word([S3[0], ALPHABET[3], S3[1]], 2) \
            + CyclicElement.from_word([S3[2], S3[0], ALPHABET[4]])
        before = dict(w.terms)
        assert cobracket(w, BASIS)
        assert w.terms == before

    def test_single_letter_words_closed(self):
        w = CyclicElement.from_word([point("x")])
        assert cobracket(w, BASIS) == Wedge2()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_co_jacobi(self, seed):
        for w in random_words(seed, 10, 6):
            assert not cobracket_squared(CyclicElement.from_word(w), BASIS)


class TestTreeSum:
    def test_length_three_single_tripod(self):
        v = tree_sum_map(CyclicElement.from_word(S3))
        assert len(v.terms) == 1
        assert v.degrees() == {1}

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_shuffle_image_vanishes(self, p, q):
        letters = [point(str(i)) for i in range(p + q)]
        sh = shuffle_sum(point("h"), letters[:p], letters[p:])
        assert not abstract_projection(tree_sum_map(sh))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_intertwines_differential(self, seed):
        for w in random_words(seed, 8, 5):
            W = CyclicElement.from_word(w)
            assert differential(tree_sum_map(W), BASIS) \
                == tree_sum_ext(cobracket(W, BASIS))
