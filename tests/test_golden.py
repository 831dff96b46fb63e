"""Golden outputs of the exact side: sha256 of the canonical text of omega_4,
eta_4, and the cobracket, tree sum and its differential on three fixed words.
Any change to a sign, a coefficient or a canonical form changes a digest."""

import hashlib

import pytest

from hodgecor.exact_algebra import CyclicElement, point
from hodgecor.form_calculus import omega, pretty, xi_eta
from hodgecor.tree_calculus import CasimirBasis, cobracket, differential, tree_sum_map

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
