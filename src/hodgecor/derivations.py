"""Special derivations of the free algebra on H + Q[S*].

The free associative algebra on generators X_s (s in S*) and a symplectic
pair system p_i, q_i is acted on by the cyclic words through the map kappa:

    p_i -> -dF/dq_i,   q_i -> dF/dp_i,   X_s -> [X_s, dF/dX_s].

Every kappa_F kills the distinguished loop

    X_0 = -sum_s X_s - sum_i [p_i, q_i],

and the bracket on cyclic words

    {F, G} = C( sum_s [dF/dX_s, dG/dX_s] X_s
                + sum_i (dF/dp_i dG/dq_i - dF/dq_i dG/dp_i) )

makes kappa a morphism of Lie algebras (checked exactly in the tests; note
the S-term carries no extra factor).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_algebra import (
    AlgebraElement, CyclicElement, add_into, concat, cyclic_project,
    partial_derivative, point, sympl_p, sympl_q,
)

__all__ = ["AlphabetSpec", "Derivation", "kappa", "lie_bracket",
           "morphism_check", "kernel_check"]


@dataclass(frozen=True)
class AlphabetSpec:
    """Genus-g symplectic pairs plus marked points S*."""

    genus: int
    s_star: tuple

    def s_letters(self) -> list:
        return [point(s) for s in self.s_star]

    def h_letters(self) -> list:
        out = []
        for i in range(1, self.genus + 1):
            out.extend([sympl_p(i), sympl_q(i)])
        return out

    def letters(self) -> list:
        return self.s_letters() + self.h_letters()

    def x0(self) -> AlgebraElement:
        """X_0 = -sum_s X_s - sum_i [p_i, q_i]."""
        acc = AlgebraElement.zero()
        for s in self.s_letters():
            acc = acc - AlgebraElement.gen(s)
        for i in range(1, self.genus + 1):
            pi, qi = AlgebraElement.gen(sympl_p(i)), AlgebraElement.gen(sympl_q(i))
            acc = acc - pi.commutator(qi)
        return acc


@dataclass
class Derivation:
    """A derivation of the free algebra given by its generator images."""

    images: dict

    def __call__(self, target: AlgebraElement) -> AlgebraElement:
        t = {}
        for w, c in target.terms.items():
            for i, ell in enumerate(w):
                img = self.images.get(ell)
                if img is None or not img:
                    continue
                for w2, c2 in img.terms.items():
                    add_into(t, w[:i] + w2 + w[i + 1:], c * c2)
        return AlgebraElement._from_canonical(t)

    def commutator_with(self, other: "Derivation", letters) -> "Derivation":
        out = {}
        for ell in letters:
            x = AlgebraElement.gen(ell)
            out[ell] = self(other(x)) - other(self(x))
        return Derivation(out)

    def is_zero_on(self, letters) -> bool:
        return all(not self(AlgebraElement.gen(ell)) for ell in letters)

    def equals_on(self, other: "Derivation", letters) -> bool:
        return all(self(AlgebraElement.gen(ell)) == other(AlgebraElement.gen(ell))
                   for ell in letters)


def kappa(F: CyclicElement, spec: AlphabetSpec) -> Derivation:
    """The special derivation attached to a cyclic word without constant term."""
    if any(len(w) == 0 for w in F.terms):
        raise ValueError("kappa needs a zero-constant-term input")
    images = {}
    for s in spec.s_letters():
        ds = partial_derivative(F, s)
        images[s] = AlgebraElement.gen(s).commutator(ds)
    for i in range(1, spec.genus + 1):
        images[sympl_p(i)] = -partial_derivative(F, sympl_q(i))
        images[sympl_q(i)] = partial_derivative(F, sympl_p(i))
    return Derivation(images)


def lie_bracket(F: CyclicElement, G: CyclicElement, spec: AlphabetSpec) -> CyclicElement:
    """{F, G}; antisymmetric, satisfies Jacobi, and kappa({F,G}) = [kappa_F, kappa_G]."""
    acc = AlgebraElement.zero()
    for s in spec.s_letters():
        dF, dG = partial_derivative(F, s), partial_derivative(G, s)
        acc = acc + concat(dF.commutator(dG), AlgebraElement.gen(s))
    for i in range(1, spec.genus + 1):
        dFp, dFq = partial_derivative(F, sympl_p(i)), partial_derivative(F, sympl_q(i))
        dGp, dGq = partial_derivative(G, sympl_p(i)), partial_derivative(G, sympl_q(i))
        acc = acc + concat(dFp, dGq) - concat(dFq, dGp)
    return cyclic_project(acc)


def morphism_check(F: CyclicElement, G: CyclicElement, spec: AlphabetSpec) -> bool:
    """True iff [kappa_F, kappa_G] and kappa_{F,G} agree on every generator."""
    kF, kG = kappa(F, spec), kappa(G, spec)
    br = lie_bracket(F, G, spec)
    lhs = kF.commutator_with(kG, spec.letters())
    return lhs.equals_on(kappa(br, spec), spec.letters())


def kernel_check(F: CyclicElement, spec: AlphabetSpec) -> bool:
    """True iff kappa_F = 0; exactly the span of the power words C(X_s^n)."""
    return kappa(F, spec).is_zero_on(spec.letters())
