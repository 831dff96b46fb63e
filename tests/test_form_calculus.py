import itertools
import math
from fractions import Fraction

import pytest

from hodgecor.form_calculus import (
    FormPolynomial, FormSymbol, _alt_sign, _lap_part, _sort_sign, alt, d, db,
    dC, d_omega_identity, omega, omega_star, omega_terms, phi, xi_eta,
)

# degree vectors for the comparisons with the alternation sum: all 0, all 1,
# all 2 and mixed, cut to m+1 arguments
DEGREES = ([0] * 6, [1] * 6, [2] * 6, [2, 0, 1, 0, 1, 2])


def alt_omega(m, degs):
    """omega_m by its definition, (1/(m+1)!) Alt sum_k (-1)^k
    phi_0 d phi_1 .. d phi_k db phi_{k+1} .. db phi_m."""
    phis = [phi(i, g) for i, g in enumerate(degs)]
    d_phis, db_phis = [d(p) for p in phis], [db(p) for p in phis]

    def template(order):
        out = FormPolynomial()
        for k in range(m + 1):
            term = phis[order[0]]
            for i in order[1:k + 1]:
                term = term * d_phis[i]
            for i in order[k + 1:]:
                term = term * db_phis[i]
            out = out + Fraction((-1) ** k) * term
        return out

    return Fraction(1, math.factorial(m + 1)) * alt(template, degs)


def alt_xi_eta(m, degs):
    """(xi_m, eta_m) by their definition, ((-1)^m/(m+1)!) Alt of
    phi_0 dC phi_1 .. dC phi_m and of dC phi_0 .. dC phi_m."""
    def template(first):
        def build(order):
            term = first(phi(order[0], degs[order[0]]))
            for i in order[1:]:
                term = term * dC(phi(i, degs[i]))
            return term
        return build

    pref = Fraction((-1) ** m, math.factorial(m + 1))
    return (pref * alt(template(lambda p: p), degs),
            pref * alt(template(dC), degs))


def alt_lap_part(m, degs):
    """(1/m!) Alt((-1)^{|phi_0|} lap phi_0 ^ omega_{m-1}(phi_1..phi_m)), with
    omega_{m-1} from `alt_omega`, its arguments renamed to the order's."""
    inner_by_degrees = {}

    def template(order):
        j, rest = order[0], order[1:]
        sub = tuple(degs[i] for i in rest)
        if sub not in inner_by_degrees:
            inner_by_degrees[sub] = alt_omega(m - 1, sub)
        inner = FormPolynomial()
        for mono, c in inner_by_degrees[sub].terms.items():
            sgn, canon = _sort_sign(tuple(
                FormSymbol(rest[s.arg], s.dtype, s.base_degree) for s in mono))
            inner = inner + FormPolynomial({canon: sgn * c})
        head = FormPolynomial({(FormSymbol(j, "lap", degs[j]),): (-1) ** degs[j]})
        return head * inner

    return Fraction(1, math.factorial(m)) * alt(template, degs)


def test_alt_standard_for_functions():
    # m=1, degrees (0,0): f(x0,x1) - f(x1,x0)
    def template(order):
        return phi(order[0]) * d(phi(order[1]))

    res = alt(template, [0, 0])
    expected = phi(0) * d(phi(1)) - phi(1) * d(phi(0))
    assert res == expected


def test_transposition_sign_degree_one():
    # (|f|+1)(|g|+1) = 4 for degrees (1,1): transposition costs +1
    assert _alt_sign([1, 0], [1, 1]) == 1
    assert _alt_sign([1, 0], [0, 0]) == -1


def _alt_sign_by_inversions(perm, degrees):
    """Reference: each inversion (i, j) costs (-1)^((deg_i+1)(deg_j+1))."""
    sign = 1
    for x, y in itertools.combinations(perm, 2):
        if x > y and (degrees[x] + 1) * (degrees[y] + 1) % 2:
            sign = -sign
    return sign


def _degree_vectors():
    for n in range(1, 5):
        yield from itertools.product(range(3), repeat=n)
    yield from ([0] * 5, [1] * 5, [2, 0, 1, 0, 2], [1, 2, 2, 0, 1],
                [0] * 6, [1] * 6, [2, 0, 1, 0, 1, 2], [0, 2, 1, 1, 2, 0])


def test_alt_sign_matches_inversion_count():
    """Over every permutation of up to 6 arguments, with mixed degrees."""
    for degrees in _degree_vectors():
        for perm in itertools.permutations(range(len(degrees))):
            assert _alt_sign(perm, degrees) == \
                _alt_sign_by_inversions(perm, degrees), (perm, degrees)


def test_alt_projector_scaling():
    for m, degs in ((1, [0, 0]), (2, [0, 0, 0])):
        def template(order, degs=degs):
            t = phi(order[0], degs[order[0]])
            for i in order[1:]:
                t = t * db(phi(i, degs[i]))
            return t

        once = alt(template, degs)

        def template2(order, degs=degs):
            # re-alternate the alternated polynomial by permuting arg ids
            remap = {i: order[i] for i in range(len(degs))}
            out = FormPolynomial()
            for mono, c in once.terms.items():
                remapped = tuple(FormSymbol(remap[s.arg], s.dtype, s.base_degree)
                                 for s in mono)
                from hodgecor.form_calculus import _sort_sign
                sgn, canon = _sort_sign(remapped)
                if sgn is not None:
                    out = out + FormPolynomial({canon: sgn * c})
            return out

        twice = alt(template2, degs)
        assert twice == Fraction(math.factorial(m + 1)) * once


def test_omega_zero_and_one():
    assert omega(0) == phi(0)
    om1 = omega(1)
    # for degree-0 arguments the transposition factor (-1)^((|f|+1)(|g|+1))
    # is -1, so the swapped pair enters with a minus
    expected = Fraction(1, 2) * (phi(0) * db(phi(1)) - phi(0) * d(phi(1))
                                 - phi(1) * db(phi(0)) + phi(1) * d(phi(0)))
    assert om1 == expected


def test_omega2_fixture():
    om2 = omega(2)
    # frozen: 12 monomials, all with coefficient +-1/3 or +-1/6
    assert len(om2.terms) == 12
    coeffs = sorted(set(abs(c) for c in om2.terms.values()))
    assert coeffs == [Fraction(1, 6), Fraction(1, 3)]
    # mixed monomial phi0 ^ d phi1 ^ db phi2 carries -1/6... check exact value
    mono = (FormSymbol(0, "phi", 0), FormSymbol(1, "d", 0), FormSymbol(2, "db", 0))
    assert om2.terms[mono] == Fraction(-1, 6)


def test_omega_terms_match_symbolic():
    # the engine template and the symbolic expansion agree
    for m in (1, 2, 3, 4, 5):
        om = omega(m)
        rebuilt = FormPolynomial()
        for coeff, j, A, B in omega_terms(m):
            mono = FormPolynomial({(FormSymbol(j, "phi", 0),): Fraction(coeff)})
            for a in A:
                mono = mono * d(phi(a))
            for b in B:
                mono = mono * db(phi(b))
            rebuilt = rebuilt + mono
        assert rebuilt == om


def test_move_operator_identities():
    # the three exchange identities under Alt_2 for degrees in {0,1}
    for d0 in (0, 1):
        for d1 in (0, 1):
            degs = [d0, d1]

            def alt2(builder):
                return alt(builder, degs)

            lhs = alt2(lambda o: db(phi(o[0], degs[o[0]])) * d(phi(o[1], degs[o[1]])))
            rhs = alt2(lambda o: d(phi(o[0], degs[o[0]])) * db(phi(o[1], degs[o[1]])))
            assert lhs == rhs

            lhs = alt2(lambda o: Fraction((-1) ** degs[o[0]])
                       * phi(o[0], degs[o[0]]) * d(db(phi(o[1], degs[o[1]]))))
            rhs = alt2(lambda o: Fraction(-(-1) ** degs[o[0]])
                       * d(db(phi(o[0], degs[o[0]]))) * phi(o[1], degs[o[1]]))
            assert lhs == rhs

            # the third exchange identity; the sign is indexed by the argument
            # keeping the plain d (the displayed form writes |phi_1|, which
            # only matches for equal degrees - derive by composing the
            # transposition rule with graded commutation)
            lhs = alt2(lambda o: d(phi(o[0], degs[o[0]])) * db(d(phi(o[1], degs[o[1]]))))
            rhs = alt2(lambda o: Fraction((-1) ** (degs[o[1]] + 1))
                       * db(d(phi(o[0], degs[o[0]]))) * d(phi(o[1], degs[o[1]])))
            assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_d_omega_identity(m):
    assert d_omega_identity(m)


def test_d_omega_identity_degree_one_args():
    assert d_omega_identity(1, [1, 0])
    assert d_omega_identity(1, [1, 1])
    assert d_omega_identity(2, [1, 0, 0])
    assert d_omega_identity(3, [1, 0, 1, 0])
    assert d_omega_identity(2, [2, 0, 1])


def test_alt_leaves_template_outputs_unchanged():
    # alt must not write into the polynomials its template hands back; the
    # operands of +, - and scalar * are covered in test_linear_combination
    p = phi(0) * d(phi(1)) + Fraction(1, 2) * db(phi(2))
    built = {perm: p * d(phi(perm[0])) for perm in [(0, 1), (1, 0)]}
    snapshots = {k: dict(v.terms) for k, v in built.items()}
    alt(lambda order: built[tuple(order)], [0, 0])
    assert all(built[k].terms == snapshots[k] for k in built)


def test_omega_is_rebuilt_per_call():
    first, second = omega(3), omega(3)
    assert first == second
    assert first is not second and first.terms is not second.terms


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("degs", DEGREES)
def test_xi_eta_match_alt(m, degs):
    assert xi_eta(m, degs[:m + 1]) == alt_xi_eta(m, degs[:m + 1])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("degs", DEGREES)
def test_omega_and_omega_star_match_alt(m, degs):
    om = alt_omega(m, degs[:m + 1])
    assert omega(m, degs[:m + 1]) == om
    for alpha in range(m + 1):
        assert omega_star(alpha, m - alpha, degs[:m + 1]) == \
            Fraction(math.comb(m, alpha)) * om.bidegree_component(alpha, m - alpha)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("degs", DEGREES)
def test_lap_part_matches_alt(m, degs):
    assert _lap_part(m, degs[:m + 1]) == alt_lap_part(m, degs[:m + 1])


def test_omega_terms_order():
    # the engine test relies on the order j, then |A|, then A
    for m in (1, 2, 3, 4):
        keys = [(j, len(A), A) for _, j, A, _ in omega_terms(m)]
        assert keys == sorted(keys)
        assert len(keys) == (m + 1) * 2 ** m


def test_wrong_degree_count_is_rejected():
    with pytest.raises(ValueError):
        omega(2, [0, 0])
    with pytest.raises(ValueError):
        xi_eta(2, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        omega_star(1, 1, [0])


def test_xi_equals_omega_at_one():
    xi1, eta1 = xi_eta(1)
    assert xi1 == omega(1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dC_xi_is_eta(m):
    xi, eta = xi_eta(m)
    assert dC(xi) == eta
    assert all(abs(c) == 1 for c in eta.terms.values())


def test_omega_star_scaling():
    # (1,0): binom(1,1) scaling of the d-part of omega_1
    om1 = omega(1)
    assert omega_star(1, 0) == om1.bidegree_component(1, 0)
    # (1,1): twice the (1,1)-component of omega_2
    om2 = omega(2)
    assert omega_star(1, 1) == Fraction(2) * om2.bidegree_component(1, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_star_pm_one(n):
    for alpha in range(n + 1):
        scaled = Fraction(n + 1) * omega_star(alpha, n - alpha)
        assert scaled.terms
        assert all(abs(c) == 1 for c in scaled.terms.values())
