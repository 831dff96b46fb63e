"""Golden outputs of the exact side: sha256 of the canonical text of omega_4,
omega_5, xi_4, eta_4, the five omega*_{a,4-a}, the cobracket, tree sum and its
differential on three fixed words and their abstract (non-plane) projections,
the special derivation, bracket and cyclic derivatives of two fixed cyclic
elements, and the dilogarithm coproduct.  Any change to a sign, a
coefficient or a canonical form changes a digest."""

import hashlib
from fractions import Fraction

import pytest

from hodgecor.derivations import AlphabetSpec, kappa, lie_bracket
from hodgecor.exact_algebra import (
    AlgebraElement, CyclicElement, derivative_identity_check, dilog_coproduct,
    partial_derivative, point,
)
from hodgecor.form_calculus import omega, omega_star, pretty, xi_eta
from hodgecor.tree_calculus import (
    CasimirBasis, abstract_projection, cobracket, differential, tree_sum_map,
)

BASIS = CasimirBasis.symplectic(1)
X, Y, Z = (point(s) for s in "xyz")
P1, Q1 = (ell for ell, _, _ in BASIS.pairs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_forms_golden():
    assert digest(pretty(omega(4))) == \
        "0c6603f0f6c95c3a34c51c821d5cf0193265fc483eb6b740c0d56f7da234907e"
    assert digest(pretty(xi_eta(4)[1])) == \
        "5698bc86cc3e24c19674dfcef0b16d62fa528a72fbacc3366e35c765c392e7e4"


def test_more_forms_golden():
    assert digest(pretty(xi_eta(4)[0])) == \
        "ba783b5aea133112157d948cf3a90b79e529c06f149fe5e906643ac7968a2145"
    assert digest(pretty(omega(5))) == \
        "88887ca3f984adc733c496a325967e45724737a2391931963471705eacc22e74"


@pytest.mark.parametrize("alpha,expected", [
    (0, "aecf711f1985617ea7e1d7c33668c0a57863daff69edfd21f9f12cd31bbc6cb8"),
    (1, "7d13e74ee0d78d07472bd5d995d4905ec5ad4ba712ea59a55b44b7fdcdc46cb5"),
    (2, "1fd6155572ddb4e0aec4ea1cd66cf249a3ac4bfb0a660e75b04622aa740b0543"),
    (3, "de9ad550104a82e10147ea90dee71f74b4111d0ec19fcad72709ad97ff537403"),
    (4, "423e8b2512accb1dcbe02537474cc3e58a2c63668928ca6899e1e9cdaa0db04e"),
])
def test_omega_star_golden(alpha, expected):
    assert digest(pretty(omega_star(alpha, 4 - alpha))) == expected


@pytest.mark.parametrize("word,expected", [
    ([X, Y, Z], (
        "2391c7af7dd1573a53dcf954dee09f551fc35e928c956dbac85260b997dbd720",
        "20b8a8009cf93b9d97193e8f6ac41e82f366c718cc693f8764507e7019178698",
        "8236f6eb4fa1fb0447d7f205f1ba67b060c44593d47f5c1d30a50462bacfc618")),
    ([X, P1, Y, Q1], (
        "680c3977bd47f6654efa73a955e0fdf0963cef1d03d9e1c65a655d1b0f83789e",
        "79f13b5c5d6ec1f37ed0e8b44650abbe9fc74f5b78300ed0453213345eb1596d",
        "185d663d4af6a9f12b22ac009a86c4a3174c8ddae89e74b81dcc30b58f4b6a97")),
    ([X, X, Y, Q1, Z], (
        "bceb81382a7261361fb45ebf3179b3aaac6510849b155153c1000d832429855b",
        "e0d52c07a7e1ef3f8794d4099166c1e432858a7885f2d6579a34824f6212a374",
        "d6739e4e895a51e618e1b04f33abc008779ccc1870ce36872810cc8039bd8d88")),
])
def test_trees_golden(word, expected):
    w = CyclicElement.from_word(word)
    forests = tree_sum_map(w)
    got = (digest(repr(cobracket(w, BASIS))), digest(repr(forests)),
           digest(repr(differential(forests, BASIS))))
    assert got == expected


@pytest.mark.parametrize("word,expected", [
    ([X, Y, Z], (
        "c5fd34c99705df319650f2adad49d7fd9ac1df9210b8e74fd8db96dc18153083",
        "bafefe6e203297c420c2b489017ec3cf86e725f396661fd8cdab3400a989a949")),
    ([X, P1, Y, Q1], (
        "ac8978edd14749da851a2c384e63e341678fba53015d624c54bc74bee7db8cbf",
        "3f3fd0beefbbde22f5e632248fd5b1d560c38aa949401710b85a4c21c44d352b")),
    ([X, X, Y, Q1, Z], (
        "5e77d7eb76c9361ecde2b437c5d89fdf273b17770873fdbea5a12363f99a039b",
        "2fdb3946ff4de899c6b9dd523889ce7129ef7ab0e08ca9bd8920ceaba3f5701d")),
])
def test_projection_golden(word, expected):
    """The abstract projection of the tree sum and of its differential: the
    shape keys and the orientation signs, not only whether it vanishes."""
    forests = tree_sum_map(CyclicElement.from_word(word))
    got = tuple(digest(repr(sorted(abstract_projection(v).items())))
                for v in (forests, differential(forests, BASIS)))
    assert got == expected


SPEC = AlphabetSpec(genus=1, s_star=("a", "b"))
XA, XB = point("a"), point("b")
F = CyclicElement.from_word([XA, P1, XB, Q1], 2) \
    + CyclicElement.from_word([XA, XA, XB], Fraction(-1, 3))
G = CyclicElement.from_word([XB, Q1, XA]) \
    + CyclicElement.from_word([P1, XA, Q1, XB, XB], Fraction(3, 2))


def test_derivations_golden():
    k = kappa(F, SPEC)
    assert digest(repr(k(SPEC.x0()))) == \
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    assert digest("; ".join(repr(k(AlgebraElement.gen(x))) for x in SPEC.letters())) == \
        "f5fb21ced92ce41f05cf8ec375fbbfbc2a4ea2a07e94cda3eecf9b59ac74a416"
    assert digest(repr(lie_bracket(F, G, SPEC))) == \
        "8e6b08be3399a6c05c9b15a00d667768ca73b28aad61693103a863c08d4a8213"
    assert digest(repr(derivative_identity_check(F))) == \
        "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"
    assert digest("; ".join(repr(partial_derivative(F + G, x)) for x in SPEC.letters())) == \
        "4858564695923e367262c84791dcde1d1a5bd0ce391ff78625c6df5b13cf91a4"


def test_dilog_coproduct_golden():
    terms = [(Fraction(1, 3), 1), (Fraction(-1, 2), 1)]
    assert digest(repr(dilog_coproduct(
        terms, [(Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2))]))) == \
        "aa641a87367156e40e9c0e51bd71406436a0e2361ad3525e3641931f1d3db784"
    assert digest(repr(dilog_coproduct(terms))) == \
        "6c397210e895059e92f0108777cf98c876fab81e4155c2ed5ffa6ddaf4d9901c"
