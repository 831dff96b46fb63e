"""Symbolic graded-form algebra in abstract arguments phi_0, phi_1, ...

A form symbol is one of phi_i, d(phi_i), db(phi_i), lap(phi_i) where d, db
are the holomorphic / antiholomorphic halves of the de Rham differential and
lap(phi) stands for db d phi (so d db phi rewrites to -lap phi).  Monomials
multiply with Koszul signs in the total degree; coefficients are exact
rationals.  This module is the sign authority for the numeric engine: the
alternation sum, the forms it defines, and the differential identities
they satisfy are all checked here symbolically.  The forms are built from
collapsed expansions, one term per distinct signed product with its
multiplicity; the (m+1)!-term alternation sum `alt` stays as their
definition, which the tests compare them against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact_algebra import LinearCombination, add_into, perm_parity

__all__ = [
    "FormSymbol", "FormPolynomial", "phi", "d", "db", "dC", "total_d",
    "alt", "omega", "omega_terms", "d_omega_identity", "xi_eta",
    "omega_star", "pretty",
]

_DTYPES = ("phi", "d", "db", "lap")
_DEG_SHIFT = {"phi": 0, "d": 1, "db": 1, "lap": 2}
_DTYPE_RANK = {t: i for i, t in enumerate(_DTYPES)}


@dataclass(frozen=True)
class FormSymbol:
    arg: int          # argument id
    dtype: str        # 'phi' | 'd' | 'db' | 'lap'
    base_degree: int  # degree of the bare argument phi_arg

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValueError(f"bad dtype {self.dtype!r}")

    @property
    def degree(self) -> int:
        return self.base_degree + _DEG_SHIFT[self.dtype]

    def _key(self):
        return (self.arg, _DTYPE_RANK[self.dtype])

    def __str__(self):
        tag = {"phi": "", "d": "d", "db": "db", "lap": "lap"}[self.dtype]
        return f"{tag}phi{self.arg}"


def _sort_sign(symbols: Sequence[FormSymbol]):
    """Sort symbols by (arg, dtype) with the Koszul sign; None if an odd
    symbol repeats (its square is zero)."""
    items = [(s._key(), s.degree % 2, s) for s in symbols]
    sign = 1
    # insertion sort on (key, parity, symbol), counting degree-weighted
    # transpositions
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1][0] > items[j][0]:
            if items[j - 1][1] and items[j][1]:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a[1] and a[0] == b[0] and a[2] == b[2]:
            return None, ()
    return sign, tuple(item[2] for item in items)


class FormPolynomial(LinearCombination):
    """Sparse rational combination of canonically ordered form monomials."""

    __slots__ = ()

    # monomials arrive canonically ordered; an entry of its own, so each
    # class's allocations can be counted apart
    __init__ = LinearCombination.__init__

    @staticmethod
    def from_symbol(s: FormSymbol) -> "FormPolynomial":
        return FormPolynomial._from_canonical({(s,): Fraction(1)})

    def __mul__(self, other):
        """The wedge product, with Koszul signs; a scalar scales."""
        if not isinstance(other, FormPolynomial):
            return self.__rmul__(other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mono = _sort_sign(m1 + m2)
                if sign is None:
                    continue
                c = c1 * c2
                add_into(t, mono, c if sign > 0 else -c)
        return FormPolynomial._from_canonical(t)

    def __repr__(self):
        return pretty(self)

    def bidegree_component(self, n_d: int, n_db: int) -> "FormPolynomial":
        """Terms with exactly n_d 'd' symbols and n_db 'db' symbols."""
        out = {}
        for mono, c in self.terms.items():
            cd = sum(1 for s in mono if s.dtype == "d")
            cdb = sum(1 for s in mono if s.dtype == "db")
            if (cd, cdb) == (n_d, n_db):
                out[mono] = c
        return FormPolynomial._from_canonical(out)


def phi(i: int, degree: int = 0) -> FormPolynomial:
    return FormPolynomial.from_symbol(FormSymbol(i, "phi", degree))


def _derive(poly: FormPolynomial, which: str) -> FormPolynomial:
    """Apply d or db as a degree-+1 derivation with Koszul signs.

    Rewrite rules: d(phi)=dphi, db(phi)=dbphi, db(dphi)=lap phi,
    d(db phi) = -lap phi, everything else -> 0.
    """
    assert which in ("d", "db")
    t = {}
    for mono, c in poly.terms.items():
        sign_prefix = 1
        for i, s in enumerate(mono):
            img = None
            img_sign = 1
            if s.dtype == "phi":
                img = FormSymbol(s.arg, which, s.base_degree)
            elif s.dtype == "d" and which == "db":
                img = FormSymbol(s.arg, "lap", s.base_degree)
            elif s.dtype == "db" and which == "d":
                img = FormSymbol(s.arg, "lap", s.base_degree)
                img_sign = -1
            if img is not None:
                new = mono[:i] + (img,) + mono[i + 1:]
                sgn, canon = _sort_sign(new)
                if sgn is not None:
                    add_into(t, canon, c if sign_prefix * img_sign * sgn > 0 else -c)
            if s.degree % 2:
                sign_prefix = -sign_prefix
    return FormPolynomial._from_canonical(t)


def d(poly: FormPolynomial) -> FormPolynomial:
    return _derive(poly, "d")


def db(poly: FormPolynomial) -> FormPolynomial:
    return _derive(poly, "db")


def dC(poly: FormPolynomial) -> FormPolynomial:
    """d^C = d - db."""
    return d(poly) - db(poly)


def total_d(poly: FormPolynomial) -> FormPolynomial:
    return d(poly) + db(poly)


def _alt_sign(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of a permutation where swapping arguments i, j costs
    (-1)^((deg_i+1)(deg_j+1)); reduces to the ordinary sign in degree 0.
    The cost is odd only when both degrees are even, so this is the sign
    of the even-degree arguments' order."""
    even = [i for i in perm if degrees[i] % 2 == 0]
    return perm_parity(even, sorted(even))


def alt(template: Callable[[Sequence[int]], FormPolynomial],
        degrees: Sequence[int]) -> FormPolynomial:
    """Alternation sum over all permutations of the m+1 arguments.

    `template(order)` must build the expression with argument ids permuted by
    `order`; signs follow the shifted-degree rule above.  The forms below are
    built from collapsed expansions instead; this is their definition, and
    the tests compare each of them against it.
    """
    acc = {}
    for perm in itertools.permutations(range(len(degrees))):
        sign = _alt_sign(perm, degrees)
        for mono, c in template(perm).terms.items():
            add_into(acc, mono, c if sign > 0 else -c)
    return FormPolynomial._from_canonical(acc)


def _degrees(m: int, degrees: Sequence[int] | None) -> Sequence[int]:
    if degrees is None:
        return [0] * (m + 1)
    if len(degrees) != m + 1:
        raise ValueError("need one degree per argument")
    return degrees


def _omega_expansion(args: Sequence[int], degrees: Sequence[int],
                     n_d: int | None = None):
    """Yield omega over the ascending argument ids `args` as (coeff, j, A, B):
    coeff * phi_j * prod_{a in A} d phi_a * prod_{b in B} db phi_b, A and B
    ascending, wedge factors ordered A then B; phi_i has degree degrees[i].
    With n_d given, only the terms with |A| = n_d.

    Of the (m+1)! permutations in Alt, the |A|! |B|! that keep j in front
    and permute only inside A and inside B all repeat one signed product:
    d phi and db phi factors graded-commute under the same shifted-degree
    sign `_alt_sign` charges.
    """
    m = len(args) - 1
    fact = math.factorial
    for j in args:
        rest = [i for i in args if i != j]
        for k in (range(m + 1) if n_d is None else (n_d,)):
            weight = Fraction((-1) ** k * fact(k) * fact(m - k), fact(m + 1))
            for A in itertools.combinations(rest, k):
                B = tuple(i for i in rest if i not in A)
                yield _alt_sign([j, *A, *B], degrees) * weight, j, A, B


def _omega(args: Sequence[int], degrees: Sequence[int],
           n_d: int | None = None) -> FormPolynomial:
    """`_omega_expansion` as a polynomial; each (j, A, B) is its own
    monomial."""
    acc = {}
    for coeff, j, A, B in _omega_expansion(args, degrees, n_d):
        sgn, mono = _sort_sign((FormSymbol(j, "phi", degrees[j]),
                                *(FormSymbol(a, "d", degrees[a]) for a in A),
                                *(FormSymbol(b, "db", degrees[b]) for b in B)))
        acc[mono] = coeff if sgn > 0 else -coeff
    return FormPolynomial._from_canonical(acc)


def _heads(m: int, degrees: Sequence[int]):
    """Yield (sign, j, rest) for each head j, with the other arguments
    ascending and the `_alt_sign` of the order j, rest."""
    for j in range(m + 1):
        rest = [i for i in range(m + 1) if i != j]
        yield _alt_sign([j, *rest], degrees), j, rest


def omega(m: int, degrees: Sequence[int] | None = None) -> FormPolynomial:
    """The form omega_m(phi_0, ..., phi_m):

        (1/(m+1)!) Alt sum_k (-1)^k phi_0 d phi_1 .. d phi_k db phi_{k+1} .. db phi_m
    """
    if m < 0:
        raise ValueError("omega needs m >= 0")
    return _omega(range(m + 1), _degrees(m, degrees))


def omega_terms(m: int):
    """Expansion of omega_m over degree-0 arguments as (coeff, j, A, B) with
    omega_m = sum coeff * phi_j * prod_{a in A} d phi_a * prod_{b in B} db phi_b,
    A and B ascending, wedge factors ordered A then B.

    The expansion agrees with the symbolic `omega` (tested).  The correlator
    engine does not filter this list: it generates each tree's terms from the
    tree side, sorted into this order (j, then |A|, then A), and a test
    compares the two.
    """
    return list(_omega_expansion(range(m + 1), [0] * (m + 1)))


def d_omega_identity(m: int, degrees: Sequence[int] | None = None) -> bool:
    """Check  d omega_m = (-1)^m d phi_0..d phi_m + db phi_0..db phi_m
                          + (1/m!) Alt((-1)^{|phi_0|} lap phi_0 ^ omega_{m-1}(phi_1..phi_m)).
    """
    if m < 1:
        raise ValueError("identity needs m >= 1")
    degrees = _degrees(m, degrees)
    lhs = total_d(omega(m, degrees))

    term1 = phi(0, degrees[0])
    term1 = d(term1)
    for i in range(1, m + 1):
        term1 = term1 * d(phi(i, degrees[i]))
    term2 = db(phi(0, degrees[0]))
    for i in range(1, m + 1):
        term2 = term2 * db(phi(i, degrees[i]))

    rhs = Fraction((-1) ** m) * term1 + term2 + _lap_part(m, degrees)
    return lhs == rhs


def _lap_part(m: int, degrees: Sequence[int]) -> FormPolynomial:
    """(1/m!) Alt((-1)^{|phi_0|} lap phi_0 ^ omega_{m-1}(phi_1..phi_m)).

    omega_{m-1} alternates under the sign Alt charges, so the m! orders of
    the arguments after a head j all repeat the term with them ascending,
    and m! cancels the 1/m!.
    """
    out = FormPolynomial()
    for sign, j, rest in _heads(m, degrees):
        head = FormPolynomial._from_canonical(
            {(FormSymbol(j, "lap", degrees[j]),): Fraction(sign * (-1) ** degrees[j])})
        out = out + head * _omega(rest, degrees)
    return out


def xi_eta(m: int, degrees: Sequence[int] | None = None):
    """The pair (xi_m, eta_m).

    xi_m is the unique multiple of Alt(phi_0 dC phi_1 .. dC phi_m) matching
    the binomial expansion with coefficients (-1)^k C(m,k) (for degree-0
    arguments this agrees with omega_1 at m=1); eta_m = dC xi_m, whose
    expansion has all coefficients +-1.

    The dC phi factors graded-commute under the sign Alt charges, so Alt
    keeps m! equal copies of each head j in xi_m and (m+1)! copies of the
    one product in eta_m.
    """
    if m < 1:
        raise ValueError("xi/eta need m >= 1")
    degrees = _degrees(m, degrees)
    phis = [phi(i, g) for i, g in enumerate(degrees)]
    dc_phis = [dC(p) for p in phis]

    xi = FormPolynomial()
    for sign, j, rest in _heads(m, degrees):
        term = phis[j]
        for i in rest:
            term = term * dc_phis[i]
        xi = xi + Fraction(sign) * term

    eta = dc_phis[0]
    for p in dc_phis[1:]:
        eta = eta * p
    return Fraction((-1) ** m, m + 1) * xi, Fraction((-1) ** m) * eta


def omega_star(alpha: int, beta: int, degrees: Sequence[int] | None = None) -> FormPolynomial:
    """omega*_{alpha,beta} = C(alpha+beta, alpha) * (alpha,beta)-component of
    omega_{alpha+beta} (component counted in d / db symbols)."""
    if alpha < 0 or beta < 0:
        raise ValueError("need alpha, beta >= 0")
    m = alpha + beta
    return Fraction(math.comb(m, alpha)) * _omega(range(m + 1), _degrees(m, degrees), alpha)


def pretty(poly: FormPolynomial) -> str:
    if not poly.terms:
        return "0"
    bits = []
    for mono, c in sorted(poly.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))):
        ms = "^".join(map(str, mono)) if mono else "1"
        bits.append(f"({c})*{ms}")
    return " + ".join(bits)
