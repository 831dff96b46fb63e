"""Exact arithmetic over tensor and cyclic words.

Everything here is built on `fractions.Fraction`; no floating point enters.
Letters come from a small decoration alphabet (marked points, holomorphic /
antiholomorphic 1-form symbols, symplectic generators), words are tuples of
letters, and elements of the tensor algebra / its cyclic envelope are sparse
dicts mapping (cyclic) words to rational coefficients.  `LinearCombination`
holds that sparse format for every exact linear combination of the package.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Letter", "Word", "AlgebraElement", "CyclicWord", "CyclicElement",
    "TensorSquareQ", "LinearCombination",
    "point", "hol_form", "antihol_form", "sympl_p", "sympl_q",
    "word", "concat", "cyclic_project", "shuffle_sum", "shuffles",
    "partial_derivative", "derivative_identity_check", "is_lie_element",
    "dilog_coproduct", "parse_cyclic", "parse_element",
]

_KIND_ORDER = {"s": 0, "dz": 1, "dzb": 2, "p": 3, "q": 4}


@dataclass(frozen=True, order=False)
class Letter:
    """One decoration symbol.

    kind is one of 's' (marked point), 'dz' / 'dzb' (holomorphic and
    antiholomorphic 1-form symbols), 'p' / 'q' (symplectic generators).
    Labels are strings for points, small ints for everything else.
    """

    kind: str
    label: object

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown letter kind {self.kind!r}")

    def _key(self):
        return (_KIND_ORDER[self.kind], str(self.label))

    def __lt__(self, other: "Letter"):
        return self._key() < other._key()

    def __le__(self, other: "Letter"):
        return self._key() <= other._key()

    def __str__(self):
        if self.kind == "s":
            return f"s:{self.label}"
        return f"{self.kind}{self.label}"

    __repr__ = __str__


def point(label) -> Letter:
    return Letter("s", str(label))


def hol_form(index: int = 1) -> Letter:
    return Letter("dz", int(index))


def antihol_form(index: int = 1) -> Letter:
    return Letter("dzb", int(index))


def sympl_p(index: int = 1) -> Letter:
    return Letter("p", int(index))


def sympl_q(index: int = 1) -> Letter:
    return Letter("q", int(index))


# A word is a plain tuple of letters; the empty tuple is the algebra unit.
Word = tuple

def word(*letters: Letter) -> Word:
    return tuple(letters)


def add_into(acc: dict, key, c) -> None:
    """acc[key] += c, in place; the zeros this leaves are dropped once, by
    `LinearCombination._from_canonical`."""
    old = acc.get(key)
    acc[key] = c if old is None else old + c


def perm_parity(seq_from: Sequence, seq_to: Sequence) -> int:
    """Sign (+1 or -1) of the permutation taking `seq_to` to `seq_from`,
    two orderings of the same distinct items, from its cycle lengths."""
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


class LinearCombination:
    """Sparse rational vector: `terms` maps canonical keys to nonzero
    Fractions.  The vector-space operations live here; a subclass
    canonicalises its keys in `__init__` and adds its own products,
    structure maps and `__repr__`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = self._summed((terms or {}).items())

    @staticmethod
    def _summed(pairs) -> dict:
        """{key: sum of its coefficients} over (key, coefficient) pairs, with
        the coefficients made Fractions and the zeros dropped."""
        acc = {}
        for k, c in pairs:
            c = Fraction(c)
            if c:
                add_into(acc, k, c)
        return {k: c for k, c in acc.items() if c}

    @classmethod
    def _from_canonical(cls, terms: dict):
        """Take ownership of a dict of canonical keys with Fraction
        coefficients and drop its zeros in place; the path for internal
        builders, which skips re-normalising and re-hashing the keys."""
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
        new = object.__new__(cls)
        new.terms = terms
        return new

    @classmethod
    def zero(cls):
        return cls._from_canonical({})

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_into(t, k, c)
        return self._from_canonical(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_into(t, k, -c)
        return self._from_canonical(t)

    def __neg__(self):
        return self._from_canonical({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return self._from_canonical({k: s * c for k, c in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)


class AlgebraElement(LinearCombination):
    """Element of the free tensor algebra with rational coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        self.terms = self._summed((tuple(w), c) for w, c in (terms or {}).items())

    # -- constructors -------------------------------------------------
    @staticmethod
    def one() -> "AlgebraElement":
        return AlgebraElement._from_canonical({(): Fraction(1)})

    @staticmethod
    def from_word(w: Iterable[Letter], coeff=1) -> "AlgebraElement":
        return AlgebraElement({tuple(w): Fraction(coeff)})

    @staticmethod
    def gen(letter: Letter) -> "AlgebraElement":
        return AlgebraElement._from_canonical({(letter,): Fraction(1)})

    # -- ring structure -----------------------------------------------
    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return concat(self, other)
        return self.__rmul__(other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))):
            ws = " ".join(map(str, w)) if w else "1"
            bits.append(f"{c}*[{ws}]")
        return " + ".join(bits)

    # -- structure maps -----------------------------------------------
    def is_homogeneous(self) -> bool:
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return concat(self, other) - concat(other, self)


def concat(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Tensor-algebra product; bilinear, associative, unit = empty word."""
    t = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            add_into(t, w1 + w2, c1 * c2)
    return AlgebraElement._from_canonical(t)


class CyclicWord:
    """A tensor word up to rotation, stored as its minimal rotation.

    symmetry_order is the number of rotations fixing the word; it divides the
    length and is kept as metadata (coefficients are never rescaled by it).
    """

    __slots__ = ("rep", "symmetry_order", "_hash")

    def __init__(self, letters: Iterable[Letter]):
        w = tuple(letters)
        if not w:
            raise ValueError("cyclic words have length >= 1")
        rots = [w[i:] + w[:i] for i in range(len(w))]
        rep = min(rots, key=lambda r: [x._key() for x in r])
        self.rep = rep
        self.symmetry_order = sum(1 for r in rots if r == rep)
        self._hash = hash(self.rep)

    def __len__(self):
        return len(self.rep)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.rep)

    def __eq__(self, other):
        return isinstance(other, CyclicWord) and self.rep == other.rep

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "CyclicWord"):
        return (len(self.rep), [x._key() for x in self.rep]) < (
            len(other.rep), [x._key() for x in other.rep])

    def __repr__(self):
        return "C(" + " ".join(map(str, self.rep)) + ")"


class CyclicElement(LinearCombination):
    """Rational linear combination of cyclic words."""

    __slots__ = ()

    # keys are canonical already (CyclicWord stores its minimal rotation);
    # an entry of its own, so each class's allocations can be counted apart
    __init__ = LinearCombination.__init__

    @staticmethod
    def from_word(letters: Iterable[Letter], coeff=1) -> "CyclicElement":
        return CyclicElement({CyclicWord(letters): Fraction(coeff)})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{w}" for w, c in sorted(self.terms.items(), key=lambda kv: kv[0]))

    def letters(self) -> set:
        out = set()
        for w in self.terms:
            out.update(w.rep)
        return out


def cyclic_project(a: AlgebraElement) -> CyclicElement:
    """Projection A -> A/[A,A]; kills commutators, identifies rotations.

    The empty word (algebra unit) is dropped: the cyclic envelope is taken of
    the augmentation ideal.
    """
    t = {}
    for w, c in a.terms.items():
        if not w:
            continue
        add_into(t, CyclicWord(w), c)
    return CyclicElement._from_canonical(t)


def shuffles(p: int, q: int) -> Iterator[tuple]:
    """(p,q)-shuffles as position tuples: sigma with sigma^-1 increasing on blocks."""
    base = list(range(p + q))
    for positions in itertools.combinations(range(p + q), p):
        out = [None] * (p + q)
        rest = [i for i in base if i not in positions]
        for a, pos in enumerate(positions):
            out[pos] = a
        for b, pos in enumerate(rest):
            out[pos] = p + b
        yield tuple(out)


def shuffle_sum(head: Letter, block1: list, block2: list) -> CyclicElement:
    """Sum over (p,q)-shuffles of C(head x v_{sigma(1)} x ... x v_{sigma(p+q)}).

    These elements span the shuffle relations cutting the cyclic Lie coalgebra
    out of cyclic tensors.
    """
    p, q = len(block1), len(block2)
    if p < 1 or q < 1:
        raise ValueError("both shuffle blocks must be non-empty")
    merged = list(block1) + list(block2)
    acc = {}
    for sigma in shuffles(p, q):
        add_into(acc, CyclicWord((head,) + tuple(merged[i] for i in sigma)), Fraction(1))
    return CyclicElement._from_canonical(acc)


def partial_derivative(F: CyclicElement, x: Letter) -> AlgebraElement:
    """Cyclic partial derivative d/dx: delete one occurrence of x and read the
    rest linearly starting after the deletion point; sum over occurrences."""
    t = {}
    for cw, c in F.terms.items():
        w = cw.rep
        for i, ell in enumerate(w):
            if ell == x:
                add_into(t, w[i + 1:] + w[:i], c)
    return AlgebraElement._from_canonical(t)


def derivative_identity_check(F: CyclicElement) -> AlgebraElement:
    """Sum over letters of [dF/dx, x]; identically zero for every F."""
    acc = AlgebraElement.zero()
    for x in sorted(F.letters()):
        acc = acc + partial_derivative(F, x).commutator(AlgebraElement.gen(x))
    return acc


def _unshuffle_reduced(a: AlgebraElement) -> dict:
    """Reduced coproduct making letters primitive (dual to shuffle): word ->
    sum over proper position subsets I of w|_I (x) w|_complement."""
    t = {}
    for w, c in a.terms.items():
        n = len(w)
        for mask in range(1, (1 << n) - 1):
            left = tuple(w[i] for i in range(n) if mask >> i & 1)
            right = tuple(w[i] for i in range(n) if not mask >> i & 1)
            add_into(t, (left, right), c)
    return {k: c for k, c in t.items() if c}


def is_lie_element(a: AlgebraElement) -> bool:
    """Primitivity test: a lies in the free Lie algebra iff the reduced
    unshuffle coproduct kills it. Requires homogeneous input."""
    if not a:
        return True
    if not a.is_homogeneous():
        raise ValueError("is_lie_element needs a homogeneous element")
    return not _unshuffle_reduced(a)


# ----------------------------------------------------------------------
# weight-two coproduct on Q* (x) Q*
# ----------------------------------------------------------------------

def _factor(n: int) -> dict:
    """Trial-division factorization of a positive integer, prime -> exponent."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _rational_vector(r: Fraction) -> tuple[int, dict]:
    """r = sign * prod p^e over primes; returns (sign, {p: e})."""
    if r == 0:
        raise ValueError("zero has no class in Q*")
    sign = 1 if r > 0 else -1
    num, den = abs(r.numerator), abs(r.denominator)
    v = _factor(num)
    for p, e in _factor(den).items():
        v[p] = v.get(p, 0) - e
    return sign, {p: e for p, e in v.items() if e}


class TensorSquareQ(LinearCombination):
    """Element of (Q* tensor Q*) tensor Q, in the basis of prime pairs.

    Pairs involving the unit -1 are 2-torsion; they are stored under the
    symbol -1 and ignored by `mod_two_torsion`.
    """

    __slots__ = ()

    @staticmethod
    def pair(a: Fraction, b: Fraction, coeff=1) -> "TensorSquareQ":
        sa, va = _rational_vector(Fraction(a))
        sb, vb = _rational_vector(Fraction(b))
        t = {}
        items_a = list(va.items()) + ([(-1, 1)] if sa < 0 else [])
        items_b = list(vb.items()) + ([(-1, 1)] if sb < 0 else [])
        for (p, e), (q, f) in itertools.product(items_a, items_b):
            add_into(t, (p, q), Fraction(coeff) * e * f)
        return TensorSquareQ._from_canonical(t)

    def mod_two_torsion(self) -> "TensorSquareQ":
        return TensorSquareQ._from_canonical(
            {k: v for k, v in self.terms.items() if -1 not in k})

    def is_zero_mod_two_torsion(self) -> bool:
        return not self.mod_two_torsion().terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*({p}(x){q})" for (p, q), v in sorted(self.terms.items()))


def dilog_coproduct(args, symbols=()) -> TensorSquareQ:
    """Coproduct of sum n_i {z_i} plus symmetric symbols a_j * b_j.

    {z} contributes (1-z) (x) z (the sign convention of the worked identity
    (1-1/3)(x)(1/3) + (1+1/2)(x)(-1/2) = 3/2 (x) 3/2); a*b contributes
    a (x) b + b (x) a, and symbols may carry an explicit third coefficient
    entry.  The result lives in (Q* tensor Q*) tensor Q; compare mod
    2-torsion to drop -1 factors.
    """
    acc = TensorSquareQ()
    for z, n in args:
        z = Fraction(z)
        if z == 0 or z == 1:
            raise ValueError("dilog argument must avoid 0 and 1")
        acc = acc + TensorSquareQ.pair(1 - z, z, coeff=Fraction(n))
    for ab in symbols:
        if len(ab) == 3:
            a, b, coeff = ab
        else:
            a, b = ab
            coeff = 1
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("log symbols must be nonzero rationals")
        acc = acc + TensorSquareQ.pair(a, b, coeff) + TensorSquareQ.pair(b, a, coeff)
    return acc


# ----------------------------------------------------------------------
# text grammar:  C(s:a dz1 p2 ...)   with rational coefficients num/den
# ----------------------------------------------------------------------

_LETTER_RE = re.compile(r"s:([^\s()]+)|dzb(\d+)|dz(\d+)|p(\d+)|q(\d+)")


def _parse_letter(tok: str) -> Letter:
    m = _LETTER_RE.fullmatch(tok)
    if not m:
        raise ValueError(f"bad letter token {tok!r}")
    if m.group(1) is not None:
        return point(m.group(1))
    if m.group(2) is not None:
        return antihol_form(int(m.group(2)))
    if m.group(3) is not None:
        return hol_form(int(m.group(3)))
    if m.group(4) is not None:
        return sympl_p(int(m.group(4)))
    return sympl_q(int(m.group(5)))


def parse_cyclic(text: str) -> CyclicWord:
    """Parse `C(tok tok ...)` into a CyclicWord."""
    text = text.strip()
    if not (text.startswith("C(") and text.endswith(")")):
        raise ValueError(f"expected C(...), got {text!r}")
    toks = text[2:-1].split()
    if not toks:
        raise ValueError("empty cyclic word")
    return CyclicWord([_parse_letter(t) for t in toks])


def parse_element(text: str) -> CyclicElement:
    """Parse sums like `3/2*C(s:a s:b) - C(s:a dz1)`.  Only signs outside
    the parentheses split terms, and only a `*` before them ends a
    coefficient, so point labels such as `s:-1+0.5i` or `s:a*b` stay whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0:
            parts.append(text[start:i])
            start = i
    parts.append(text[start:])
    acc = {}
    for part in filter(None, (p.strip() for p in parts)):
        coeff = Fraction(1)
        if part[0] in "+-":
            coeff = Fraction(-1 if part[0] == "-" else 1)
            part = part[1:].strip()
        if "*" in part.split("(", 1)[0]:
            cs, part = part.split("*", 1)
            coeff *= Fraction(cs.strip())
        add_into(acc, parse_cyclic(part), coeff)
    return CyclicElement._from_canonical(acc)
