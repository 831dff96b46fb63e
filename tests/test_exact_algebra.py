from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgecor.exact_algebra import (
    AlgebraElement, CyclicElement, CyclicWord, TensorSquareQ, concat,
    cyclic_project, derivative_identity_check, dilog_coproduct,
    is_lie_element, parse_cyclic, parse_element, partial_derivative, point,
    shuffle_sum, shuffles, sympl_p,
)

A, B, C, H = point("a"), point("b"), point("c"), point("h")
letters = st.sampled_from([A, B, C, sympl_p(1)])
small_words = st.lists(letters, min_size=1, max_size=8)


def gen(x):
    return AlgebraElement.gen(x)


class TestConcat:
    def test_product_of_generators(self):
        assert concat(gen(A), gen(B)) == AlgebraElement.from_word([A, B])

    def test_unit(self):
        w = AlgebraElement.from_word([A, B], 3)
        assert concat(AlgebraElement.one(), w) == w
        assert concat(w, AlgebraElement.one()) == w

    @given(small_words, small_words, small_words)
    @settings(max_examples=30, deadline=None)
    def test_bilinear_and_associative(self, w1, w2, w3):
        x = AlgebraElement.from_word(w1, 2)
        y = AlgebraElement.from_word(w2, -1)
        z = AlgebraElement.from_word(w3)
        assert concat(x + y, z) == concat(x, z) + concat(y, z)
        assert concat(concat(x, y), z) == concat(x, concat(y, z))


class TestCyclicProject:
    def test_kills_commutators(self):
        x = AlgebraElement.from_word([A, B, C])
        y = AlgebraElement.from_word([C, A, B])
        assert cyclic_project(x - y) == CyclicElement.zero()
        comm = gen(A).commutator(gen(B))
        assert cyclic_project(comm) == CyclicElement.zero()

    def test_rotation_invariance(self):
        assert CyclicWord([A, B, C]) == CyclicWord([C, A, B])

    def test_symmetry_order(self):
        assert CyclicWord([A, B, A, B]).symmetry_order == 2
        assert CyclicWord([A, B, C]).symmetry_order == 1
        assert CyclicWord([A, A, A]).symmetry_order == 3


class TestShuffles:
    def test_two_shuffles(self):
        s = shuffle_sum(H, [A], [B])
        expected = (CyclicElement.from_word([H, A, B])
                    + CyclicElement.from_word([H, B, A]))
        assert s == expected

    def test_term_counts(self):
        assert len(list(shuffles(1, 2))) == 3
        assert len(list(shuffles(2, 2))) == 6
        s12 = shuffle_sum(H, [A], [B, C])
        assert sum(s12.terms.values()) == 3
        s22 = shuffle_sum(H, [A, B], [C, point("d")])
        assert sum(s22.terms.values()) == 6

    @given(st.lists(letters, min_size=1, max_size=3),
           st.lists(letters, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_block_symmetry(self, b1, b2):
        assert shuffle_sum(H, b1, b2) == shuffle_sum(H, b2, b1)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            shuffle_sum(H, [], [A])


class TestPartialDerivative:
    def test_worked_example(self):
        y1, y2, y3 = point("1"), point("2"), point("3")
        F = CyclicElement.from_word([y1, y2, y1, y3])
        expected = (AlgebraElement.from_word([y2, y1, y3])
                    + AlgebraElement.from_word([y3, y1, y2]))
        assert partial_derivative(F, y1) == expected

    def test_absent_letter(self):
        F = CyclicElement.from_word([point("2"), point("3")])
        assert partial_derivative(F, point("1")) == AlgebraElement.zero()

    def test_repeated_letter(self):
        F = CyclicElement.from_word([A, A])
        assert partial_derivative(F, A) == 2 * gen(A)

    @given(small_words)
    @settings(max_examples=60, deadline=None)
    def test_derivative_identity(self, w):
        F = CyclicElement.from_word(w)
        assert derivative_identity_check(F) == AlgebraElement.zero()

    def test_derivative_identity_zero(self):
        assert derivative_identity_check(CyclicElement.zero()) == AlgebraElement.zero()


class TestLieMembership:
    def test_commutator_is_lie(self):
        assert is_lie_element(gen(A).commutator(gen(B)))
        triple = gen(A).commutator(gen(B)).commutator(gen(C))
        assert is_lie_element(triple)

    def test_plain_word_is_not(self):
        assert not is_lie_element(concat(gen(A), gen(B)))

    def test_generator_is_lie(self):
        assert is_lie_element(gen(A))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            is_lie_element(gen(A) + concat(gen(A), gen(B)))


class TestDilogCoproduct:
    def test_worked_identity(self):
        # (1 - 1/3)(x)(1/3) + (1 + 1/2)(x)(-1/2) = 3/2 (x) 3/2 mod 2-torsion
        cop = dilog_coproduct([(Fraction(1, 3), 1), (Fraction(-1, 2), 1)])
        target = TensorSquareQ.pair(Fraction(3, 2), Fraction(3, 2))
        assert cop.mod_two_torsion() == target.mod_two_torsion()

    def test_motivic_side_vanishes(self):
        # adding the symbol part of the five-term consequence kills it
        cop = dilog_coproduct(
            [(Fraction(1, 3), 1), (Fraction(-1, 2), 1)],
            [(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))])
        assert cop.is_zero_mod_two_torsion()

    def test_empty(self):
        assert dilog_coproduct([], []).terms == {}

    @given(st.integers(2, 30), st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_additive(self, p, q):
        z1 = Fraction(1, p)
        z2 = Fraction(q, q + 1)
        both = dilog_coproduct([(z1, 1), (z2, 2)])
        split = dilog_coproduct([(z1, 1)]) + 2 * dilog_coproduct([(z2, 1)])
        assert both.mod_two_torsion() == split.mod_two_torsion()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            dilog_coproduct([(Fraction(1), 1)])
        with pytest.raises(ValueError):
            dilog_coproduct([], [(Fraction(0), Fraction(2))])


class TestSerialization:
    def test_round_trip(self):
        text = "3/2*C(s:a s:b dz1) - C(p2 q2)"
        el = parse_element(text)
        assert len(el.terms) == 2
        assert el.terms[parse_cyclic("C(s:a s:b dz1)")] == Fraction(3, 2)
        assert el.terms[parse_cyclic("C(p2 q2)")] == Fraction(-1)

    def test_signs_inside_point_labels(self):
        got = parse_element("C(s:-1+0.5i s:0 s:1) - 2*C(s:a s:b s:c)")
        want = CyclicElement.from_word([point(x) for x in ("-1+0.5i", "0", "1")]) \
            - CyclicElement.from_word([point(x) for x in "abc"], 2)
        assert got == want
        assert parse_element("C(s:a*b s:c) + 1/2*C(s:a*b s:c)") == \
            CyclicElement.from_word([point("a*b"), point("c")], Fraction(3, 2))

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_cyclic("C(s:a bogus!)")
        with pytest.raises(ValueError):
            parse_cyclic("D(s:a)")
