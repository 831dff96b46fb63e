"""Symbolic graded-form algebra in abstract arguments phi_0, phi_1, ...

A form symbol is one of phi_i, d(phi_i), db(phi_i), lap(phi_i) where d, db
are the holomorphic / antiholomorphic halves of the de Rham differential and
lap(phi) stands for db d phi (so d db phi rewrites to -lap phi).  Monomials
multiply with Koszul signs in the total degree; coefficients are exact
rationals.  This module is the sign authority for the numeric engine: the
alternation sum, the forms built out of it, and the differential identities
they satisfy are all checked here symbolically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact_algebra import LinearCombination, add_into

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
    (-1)^((deg_i+1)(deg_j+1)); reduces to the ordinary sign in degree 0."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                if ((degrees[perm[i]] + 1) * (degrees[perm[j]] + 1)) % 2:
                    sign = -sign
    return sign


def alt(template: Callable[[Sequence[int]], FormPolynomial],
        degrees: Sequence[int]) -> FormPolynomial:
    """Alternation sum over all permutations of the m+1 arguments.

    `template(order)` must build the expression with argument ids permuted by
    `order`; signs follow the shifted-degree rule above.
    """
    acc = {}
    for perm in itertools.permutations(range(len(degrees))):
        sign = _alt_sign(perm, degrees)
        for mono, c in template(perm).terms.items():
            add_into(acc, mono, c if sign > 0 else -c)
    return FormPolynomial._from_canonical(acc)


def _omega_template(degrees: Sequence[int]) -> Callable:
    m = len(degrees) - 1
    # the factors do not depend on the permutation: build them once
    phis = [phi(i, g) for i, g in enumerate(degrees)]
    d_phis = [d(p) for p in phis]
    db_phis = [db(p) for p in phis]

    def build(order: Sequence[int]) -> FormPolynomial:
        acc = {}
        for k in range(m + 1):
            term = phis[order[0]]
            for idx in order[1:k + 1]:
                term = term * d_phis[idx]
            for idx in order[k + 1:]:
                term = term * db_phis[idx]
            for mono, c in term.terms.items():
                add_into(acc, mono, -c if k % 2 else c)
        return FormPolynomial._from_canonical(acc)

    return build


def omega(m: int, degrees: Sequence[int] | None = None) -> FormPolynomial:
    """The form omega_m(phi_0, ..., phi_m):

        (1/(m+1)!) Alt sum_k (-1)^k phi_0 d phi_1 .. d phi_k db phi_{k+1} .. db phi_m
    """
    if m < 0:
        raise ValueError("omega needs m >= 0")
    if degrees is None:
        degrees = [0] * (m + 1)
    if len(degrees) != m + 1:
        raise ValueError("need one degree per argument")
    return Fraction(1, math.factorial(m + 1)) * alt(_omega_template(degrees), degrees)


def omega_terms(m: int):
    """Expansion of omega_m over degree-0 arguments as (coeff, j, A, B) with
    omega_m = sum coeff * phi_j * prod_{a in A} d phi_a * prod_{b in B} db phi_b,
    A and B ascending, wedge factors ordered A then B.

    The expansion agrees with the symbolic `omega` (tested).  The correlator
    engine does not filter this list: it generates each tree's terms from the
    tree side, sorted into this order (j, then |A|, then A), and a test
    compares the two.
    """
    out = []
    fact = math.factorial
    idx = range(m + 1)
    for j in idx:
        rest = [i for i in idx if i != j]
        for k in range(m + 1):
            for A in itertools.combinations(rest, k):
                B = tuple(i for i in rest if i not in A)
                perm = [j] + list(A) + list(B)
                sgn = _alt_sign(perm, [0] * (m + 1))
                coeff = Fraction((-1) ** k * fact(k) * fact(m - k) * sgn, fact(m + 1))
                out.append((coeff, j, A, B))
    return out


def d_omega_identity(m: int, degrees: Sequence[int] | None = None) -> bool:
    """Check  d omega_m = (-1)^m d phi_0..d phi_m + db phi_0..db phi_m
                          + (1/m!) Alt((-1)^{|phi_0|} lap phi_0 ^ omega_{m-1}(phi_1..phi_m)).
    """
    if m < 1:
        raise ValueError("identity needs m >= 1")
    if degrees is None:
        degrees = [0] * (m + 1)
    lhs = total_d(omega(m, degrees))

    term1 = phi(0, degrees[0])
    term1 = d(term1)
    for i in range(1, m + 1):
        term1 = term1 * d(phi(i, degrees[i]))
    term2 = db(phi(0, degrees[0]))
    for i in range(1, m + 1):
        term2 = term2 * db(phi(i, degrees[i]))

    # omega_{m-1} by argument degrees, built once per call (not cached
    # across calls, so every check redoes its own work)
    inner = {}

    def lap_template(order):
        j = order[0]
        rest = order[1:]
        head = FormPolynomial._from_canonical(
            {(FormSymbol(j, "lap", degrees[j]),): Fraction((-1) ** degrees[j])})
        sub_degrees = tuple(degrees[i] for i in rest)
        sub = inner.get(sub_degrees)
        if sub is None:
            sub = inner[sub_degrees] = omega(m - 1, sub_degrees)
        # re-index the inner omega's arguments 0..m-1 onto `rest`, re-sorting
        # each monomial with its Koszul sign
        acc = {}
        for mono, c in sub.terms.items():
            sgn, canon = _sort_sign(
                tuple(FormSymbol(rest[s.arg], s.dtype, s.base_degree) for s in mono))
            if sgn is not None:
                add_into(acc, canon, c if sgn > 0 else -c)
        return head * FormPolynomial._from_canonical(acc)

    lap_part = Fraction(1, math.factorial(m)) * alt(lap_template, degrees)
    rhs = Fraction((-1) ** m) * term1 + term2 + lap_part
    return lhs == rhs


def xi_eta(m: int, degrees: Sequence[int] | None = None):
    """The pair (xi_m, eta_m).

    xi_m is the unique multiple of Alt(phi_0 dC phi_1 .. dC phi_m) matching
    the binomial expansion with coefficients (-1)^k C(m,k) (for degree-0
    arguments this agrees with omega_1 at m=1); eta_m = dC xi_m, whose
    expansion has all coefficients +-1.
    """
    if m < 1:
        raise ValueError("xi/eta need m >= 1")
    if degrees is None:
        degrees = [0] * (m + 1)

    phis = [phi(i, g) for i, g in enumerate(degrees)]
    dc_phis = [dC(p) for p in phis]

    def xi_template(order):
        term = phis[order[0]]
        for idx in order[1:]:
            term = term * dc_phis[idx]
        return term

    pref = Fraction((-1) ** m, math.factorial(m + 1))
    xi = pref * alt(xi_template, degrees)

    def eta_template(order):
        term = dc_phis[order[0]]
        for idx in order[1:]:
            term = term * dc_phis[idx]
        return term

    eta = pref * alt(eta_template, degrees)
    return xi, eta


def omega_star(alpha: int, beta: int, degrees: Sequence[int] | None = None) -> FormPolynomial:
    """omega*_{alpha,beta} = C(alpha+beta, alpha) * (alpha,beta)-component of
    omega_{alpha+beta} (component counted in d / db symbols)."""
    if alpha < 0 or beta < 0:
        raise ValueError("need alpha, beta >= 0")
    m = alpha + beta
    om = omega(m, degrees)
    return Fraction(math.comb(m, alpha)) * om.bidegree_component(alpha, beta)


def pretty(poly: FormPolynomial) -> str:
    if not poly.terms:
        return "0"
    bits = []
    for mono, c in sorted(poly.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))):
        ms = "^".join(map(str, mono)) if mono else "1"
        bits.append(f"({c})*{ms}")
    return " + ".join(bits)
