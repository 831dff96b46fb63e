"""Vector-space laws shared by the six linear-combination classes of the exact
side, which all keep their terms in the sparse format of `LinearCombination`."""

from fractions import Fraction

import pytest

from hodgecor.exact_algebra import (
    AlgebraElement, CyclicElement, CyclicWord, LinearCombination,
    TensorSquareQ, point, sympl_p,
)
from hodgecor.form_calculus import FormPolynomial, d, db, phi
from hodgecor.tree_calculus import (
    ForestVector, OrientedForest, Wedge2, enumerate_trivalent_trees, tree_sum_map,
)

X, Y, Z, W = (point(s) for s in "xyzw")
P = sympl_p(1)


def _cw(*letters):
    return CyclicWord(letters)


def _forest_keys():
    keys = list(tree_sum_map(CyclicElement.from_word([X, Y, Z, W])).terms)
    keys += list(tree_sum_map(CyclicElement.from_word([X, P, Y])).terms)
    return keys


def _form_terms():
    p = phi(0) * d(phi(1)) + Fraction(1, 2) * db(phi(2))
    q = Fraction(-1, 2) * db(phi(2)) + phi(3, 1)
    return p.terms, q.terms


def _cases():
    """Class and two overlapping raw term dicts per class."""
    f1, f2, f3 = _forest_keys()[:3]
    p, q = _form_terms()
    return {
        "AlgebraElement": (AlgebraElement,
                           {(X, Y): 2, (Z,): Fraction(-1, 3), (): 1},
                           {(X, Y): -1, (Y, P): 5}),
        "CyclicElement": (CyclicElement,
                          {_cw(X, Y): 1, _cw(X, Z, Y): Fraction(1, 2)},
                          {_cw(X, Y): Fraction(-1, 2), _cw(Z): 3}),
        "TensorSquareQ": (TensorSquareQ,
                          {(2, 3): 1, (5, -1): 2},
                          {(2, 3): -3, (3, 3): Fraction(1, 7)}),
        "FormPolynomial": (FormPolynomial, p, q),
        "ForestVector": (ForestVector, {f1: 1, f2: Fraction(2, 3)},
                         {f2: -1, f3: 4}),
        "Wedge2": (Wedge2,
                   {(_cw(Y), _cw(X)): 1, (_cw(X, Y), _cw(Z)): 2},
                   {(_cw(X), _cw(Y)): 3, (_cw(Z), _cw(X, P)): Fraction(-5, 2)}),
    }


CASES = _cases()


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, ta, tb = CASES[request.param]
    return cls, dict(ta), dict(tb)


def test_every_class_shares_the_base(case):
    cls, _, _ = case
    assert issubclass(cls, LinearCombination)
    for op in ("__add__", "__sub__", "__rmul__", "__eq__", "__bool__"):
        assert op not in cls.__dict__


def test_difference_with_itself_is_zero(case):
    cls, ta, _ = case
    a = cls(ta)
    assert a
    assert not a - a
    assert not a + (-a)
    assert not 0 * a


def test_zero_coefficients_dropped(case):
    cls, ta, tb = case
    (k, c), = list(ta.items())[:1]
    assert cls({k: 0}).terms == {}
    assert cls({**ta, k: 0}) == cls({kk: cc for kk, cc in ta.items() if kk != k})
    assert all(cls(ta).terms.values())
    cancel = cls({k: c}) - cls(ta)
    assert all(cancel.terms.values()) and len(cancel.terms) == len(ta) - 1


def test_scalar_distributes(case):
    cls, ta, tb = case
    a, b = cls(ta), cls(tb)
    for c in (Fraction(3, 4), -2, 1):
        assert c * (a + b) == c * a + c * b
        assert c * (a - b) == c * a - c * b
    assert a + b == b + a
    assert a - b == -(b - a)


def test_operands_unchanged(case):
    cls, ta, tb = case
    a, b = cls(ta), cls(tb)
    a_terms, b_terms = dict(a.terms), dict(b.terms)
    results = [a + b, a - b, -a, Fraction(3) * a, a * Fraction(3)]
    assert Fraction(3) * a == a + a + a
    assert all(r.terms is not a.terms and r.terms is not b.terms for r in results)
    assert a.terms == a_terms and b.terms == b_terms


def test_equality_ignores_insertion_order(case):
    cls, ta, tb = case
    assert cls(dict(reversed(list(ta.items())))) == cls(ta)
    assert cls(ta) + cls(tb) == cls(tb) + cls(ta)
    assert cls(ta) != cls(tb)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hashability(name):
    cls, ta, _ = CASES[name]
    if cls in (AlgebraElement, CyclicElement):
        assert hash(cls(ta)) == hash(cls(dict(reversed(list(ta.items())))))
    else:
        with pytest.raises(TypeError):
            hash(cls(ta))


def test_key_normalisations():
    x, y = _cw(X), _cw(Y)
    assert Wedge2({(y, x): 1}) == Wedge2({(x, y): -1})
    assert not Wedge2({(x, x): 1})
    assert not Wedge2({(x, y): 1, (y, x): 1})
    # a repeated component with an odd number of edges is a null forest
    (forest,) = enumerate_trivalent_trees([X, Y, Z])
    (tree,) = forest.trees
    assert len(tree.edges()) % 2
    assert OrientedForest([tree, tree]).is_null()
    assert not ForestVector({(tree, tree): 1})
    assert ForestVector({(tree,): 1})
