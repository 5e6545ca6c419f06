import itertools
import math
import random
from fractions import Fraction as F

import pytest

from qbernstein.distributions import Constant, CustomMoments, NegBinomial, Poisson
from qbernstein import distributions, padic
from qbernstein.families import prob_qbernstein_laurent
from qbernstein.padic import (
    carlitz_beta,
    fermionic,
    integrate_corollaries,
    integrate_weighted_term,
    q_euler,
    volkenborn,
)
from qbernstein.rings import Laurent, LogPoly, falling_factorial, laurent_x_derivation

from faults import clear_caches
from oracles import (
    SIX_LAWS,
    conjugate_bracket_in_t,
    constant_part,
    fermionic_partial_sum,
    is_log_free,
    padic_valuation,
    shift_x,
    volkenborn_direct_sum,
    volkenborn_partial_sum,
)

Q_VALUES = [F(4, 9), F(3, 2), F(9, 4)]


def test_bosonic_rule_values():
    q = F(4, 9)
    assert volkenborn(Laurent({0: 1}), q) == 1
    assert volkenborn(Laurent({1: 1}), q) == F(18, 13)
    assert volkenborn(Laurent({1: 1}), q) == 2 / (1 + q)
    assert volkenborn(Laurent({-1: 1}), q) == LogPoly({-1: q - 1})


def test_fermionic_rule_values():
    q = F(4, 9)
    assert fermionic(Laurent({0: 1}), q) == 1
    assert fermionic(Laurent({1: 1}), q) == (1 + q) / (1 + q**2)
    assert fermionic(Laurent({-1: 1}), q) == (1 + q) / 2


def test_operators_are_linear():
    rng = random.Random(99)
    for q in Q_VALUES:
        for _ in range(10):
            fs = [
                Laurent({rng.randint(-5, 5): F(rng.randint(-9, 9), rng.randint(1, 9))})
                for _ in range(3)
            ]
            combo = fs[0] + fs[1] * F(2, 3) + fs[2] * F(-7, 2)
            for op in (volkenborn, fermionic):
                expected = (
                    op(fs[0], q) + op(fs[1], q) * F(2, 3) + op(fs[2], q) * F(-7, 2)
                )
                assert op(combo, q) == expected


def test_bosonic_functional_equation():
    """q I(shift f) = I(f) + (q-1) f(0) + ((q-1)/L) f'(0), exactly in LogPoly,
    where f(0) is the value at t = 1 and f'(0) the exponent-derivative there."""
    for q in Q_VALUES:
        for beta in range(-6, 7):
            f = Laurent({beta: F(1)})
            lhs = volkenborn(shift_x(f, q), q) * q
            f_at_zero = f.substitute(F(1))
            f_prime = laurent_x_derivation(f).substitute(F(1))  # beta * L
            rhs = (
                volkenborn(f, q)
                + (q - 1) * f_at_zero
                + LogPoly({-1: q - 1}) * f_prime
            )
            assert lhs == rhs


def test_fermionic_functional_equation():
    """q I(shift f) + I(f) = (1+q) f(0), exactly."""
    for q in Q_VALUES:
        for beta in range(-6, 7):
            f = Laurent({beta: F(1)})
            lhs = fermionic(shift_x(f, q), q) * q + fermionic(f, q)
            assert lhs == (1 + q) * f.substitute(F(1))


def test_carlitz_and_q_euler_numbers():
    for q in Q_VALUES:
        assert carlitz_beta(0, q) == 1
        assert carlitz_beta(1, q) == F(-1) / (1 + q)
        assert q_euler(0, q) == 1
        assert q_euler(1, q) == -q / (1 + q**2)
        for r in range(9):
            assert is_log_free(carlitz_beta(r, q))
            assert is_log_free(q_euler(r, q))


def test_integrate_corollaries_trivial_case():
    for law in (Poisson(F(1)), Constant(F(1))):
        bos, ferm = integrate_corollaries(law, 0, 0, F(4, 9))
        assert bos == 1 and ferm == 1


def test_integrate_corollaries_two_term_case():
    # unit law, lowest nontrivial index: the integrand is the bracket of 1 - x
    q = F(4, 9)
    bos, ferm = integrate_corollaries(Constant(F(1)), 0, 1, q)
    integrand = Laurent({0: F(1) / (1 - q), -1: -q / (1 - q)})
    assert bos == volkenborn(integrand, q)
    assert ferm == fermionic(integrand, q)
    # the bosonic value picks up a formal-log part from the t^-1 term
    assert not is_log_free(bos)
    assert is_log_free(ferm)


def test_integrate_weighted_term_reduces_to_plain_integration():
    q = F(3, 2)
    law = Poisson(F(2, 3))
    integrand = prob_qbernstein_laurent(law, 1, 2, q)
    assert integrate_weighted_term(law, 1, 2, 0, q) == (
        volkenborn(integrand, q),
        fermionic(integrand, q),
    )
    weight = falling_factorial(conjugate_bracket_in_t(q), 2)
    integrand = weight * prob_qbernstein_laurent(law, 0, 1, q)
    assert integrate_weighted_term(law, 0, 1, 2, q) == (
        volkenborn(integrand, q),
        fermionic(integrand, q),
    )


CUSTOM_LAW = CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(17)))
BASIS_LAWS = SIX_LAWS + [Constant(F(0)), Constant(F(2)), CUSTOM_LAW]
# The laws also checked at w = 0 up to n = 16: one of infinite support, the
# degenerate law away from 0, and the law of arbitrary rational moments.
DEEP_LAWS = [Poisson(F(2, 3)), Constant(F(2)), CUSTOM_LAW]


# One q on each side of 1, on the full grid n <= 10, and two coherent q of
# larger height, (9/5)^4 and (2/5)^3, on n <= 8.
@pytest.mark.parametrize(
    "q, top",
    [pytest.param(q, top, id=str(q)) for q, top in
     [(F(2, 5), 10), (F(7, 4), 10), (F(6561, 625), 8), (F(8, 125), 8)]],
)
def test_basis_integrals_equal_the_integrals_of_the_reference_integrand(q, top):
    """The per-q basis route equals both operators applied to the weight
    (Xc)_w times the Laurent reference value: for every law at w <= 3 and
    0 <= r <= n <= top, and for the laws of DEEP_LAWS at w = 0 and n <= 16 too.
    The laws are visited in a shuffled order so that no result depends on what
    an earlier law left in the basis."""
    weights = [falling_factorial(conjugate_bracket_in_t(q), w) for w in range(4)]
    laws = list(BASIS_LAWS)
    random.Random(str(q)).shuffle(laws)
    for law in laws:
        for n in range(17 if law in DEEP_LAWS else top + 1):
            for r in range(n + 1):
                reference = prob_qbernstein_laurent(law, r, n, q)
                for w, weight in enumerate(weights if n <= top else weights[:1]):
                    integrand = weight * reference
                    expected = (volkenborn(integrand, q), fermionic(integrand, q))
                    assert integrate_weighted_term(law, r, n, w, q) == expected
                    if w == 0:
                        assert integrate_corollaries(law, r, n, q) == expected


@pytest.mark.parametrize("q", [F(2, 5), F(7, 4), F(6561, 625)], ids=str)
def test_held_rows_give_the_values_of_empty_caches(q):
    """A row grown past n - r gives what a row grown to exactly n - r gives:
    for two laws, w <= 2 and 0 <= r <= n <= 6, each value read from empty
    caches equals the value read after its row was first grown to n + 6, the
    value read with n descending, and both operators applied to the weight
    (Xc)_w times the Laurent reference value."""
    laws, top = [Poisson(F(3, 2)), NegBinomial(2, F(1, 3))], 6
    cases = [
        (law, r, n, w)
        for law in laws for w in range(3) for n in range(top + 1) for r in range(n + 1)
    ]

    fresh, above = {}, {}
    for law, r, n, w in cases:
        clear_caches()
        fresh[law, r, n, w] = integrate_weighted_term(law, r, n, w, q)
        clear_caches()
        integrate_weighted_term(law, r, n + 6, w, q)
        above[law, r, n, w] = integrate_weighted_term(law, r, n, w, q)
    clear_caches()
    descending = {
        case: integrate_weighted_term(*case, q)
        for case in sorted(cases, key=lambda case: -case[2])
    }
    assert above == fresh
    assert descending == fresh
    for (law, r, n, w), value in fresh.items():
        integrand = falling_factorial(conjugate_bracket_in_t(q), w)
        integrand = integrand * prob_qbernstein_laurent(law, r, n, q)
        assert value == (volkenborn(integrand, q), fermionic(integrand, q))


# the laurent points of the benchmark at seeds 401, 402 and 42
@pytest.mark.parametrize("q", [F(81, 256), F(81, 16), F(1, 8)], ids=str)
def test_rows_hold_integers_near_the_size_of_the_values(q):
    """For the six laws at 0 <= r <= n <= 16, the largest integer a row holds
    (its polynomial, parts, denominators, lcms and rules) has at most twice
    the bits of the largest numerator or denominator among the values that
    integrate_corollaries returned from it.  The rows are read back as cache
    hits, as the calls left them."""
    clear_caches()
    bits = {}
    for law in SIX_LAWS:
        for n in range(17):
            for r in range(n + 1):
                for value in integrate_corollaries(law, r, n, q):
                    for c in value.terms.values():
                        size = max(c.numerator.bit_length(), c.denominator.bit_length())
                        bits[r] = max(bits.get(r, 0), size)
    hits = padic._rows.cache_info().hits
    for r, size in bits.items():
        row = padic._rows(q.numerator, q.denominator, r, 0)
        held = itertools.chain(row.poly, row.dens, row.lcms, *row.parts, *row.rules)
        assert max(abs(x).bit_length() for x in held) <= 2 * size, r
    assert padic._rows.cache_info().hits == hits + len(bits)


def _monomial_rule(b, q, bosonic):
    """The rule of t^b, written out here and not read from the operators' table."""
    if not bosonic:
        return (1 + q) / (1 + q ** (b + 1))
    return LogPoly({-1: q - 1}) if b == -1 else (b + 1) * (q - 1) / (q ** (b + 1) - 1)


@pytest.mark.parametrize("q", [F(4, 9), F(3, 2), F(6561, 625)], ids=str)
def test_operators_on_formal_log_coefficients_follow_the_monomial_rule(q):
    """Both operators on Laurent polynomials whose coefficients are LogPoly
    (the x-derivative of a family value, with a t^-1 term) or mixed with
    Fraction ones equal the sum over terms of coefficient times rule."""
    mixed = Laurent({-1: LogPoly({1: F(2), -2: F(1, 3)}), 0: F(5, 7), 3: LogPoly({0: F(-1)})})
    integrands = [mixed] + [
        laurent_x_derivation(prob_qbernstein_laurent(law, r, 4, q))
        for law in SIX_LAWS[:3]
        for r in (0, 2)
    ]
    for f in integrands:
        assert any(b == -1 for b in f.terms)
        for op, bosonic in ((volkenborn, True), (fermionic, False)):
            expected = sum(
                (_monomial_rule(b, q, bosonic) * c for b, c in f.terms.items()), LogPoly()
            )
            assert op(f, q) == expected


@pytest.mark.parametrize("q", [F(11, 13), F(3, 2)], ids=str)
def test_operators_on_sparse_high_powers_state_only_the_rules_present(q):
    """t^2000 and t^-2000 beside t^-1 integrate to the sum of their monomial
    rules, and the operators state the rules of those three exponents only,
    not of every exponent between them."""
    padic._rules.cache_clear()
    f = Laurent({2000: F(3, 7), -2000: F(1), -1: F(2)})
    for op, bosonic in ((volkenborn, True), (fermionic, False)):
        expected = sum(
            (_monomial_rule(b, q, bosonic) * c for b, c in f.terms.items()), LogPoly()
        )
        assert op(f, q) == expected
    assert sorted(padic._rules(q)) == [-2000, -1, 2000]


def test_caches_stay_within_their_bounds():
    """Integrals at 20 distinct q, more than the 16 rule tables held, give the
    same values when asked again after their tables were evicted, and after
    every cache was emptied; each cache holds at most its stated bound."""
    qs = [F(k + 2, k + 1) for k in range(10)] + [F(k + 1, k + 3) for k in range(10)]
    laws = SIX_LAWS[:2]

    def values(q):
        return [
            integrate_weighted_term(law, r, n, w, q)
            for law in laws for n in range(6) for r in range(n + 1) for w in range(2)
        ]

    first = {q: values(q) for q in qs}
    assert padic._rules.cache_info().currsize == 16
    assert all(values(q) == first[q] for q in qs)
    clear_caches()
    assert all(values(q) == first[q] for q in reversed(qs))
    caches = ((padic._rules, 16), (padic._rows, 1024), (distributions._shared_table, 64))
    for cache, bound in caches:
        assert cache.cache_info().maxsize == bound
        assert cache.cache_info().currsize <= bound


def test_partial_sums_converge_to_bosonic_rule_in_the_5_adic_metric():
    p, q = 5, F(6)
    for beta in range(4):
        closed = constant_part(volkenborn(Laurent({beta: 1}), q))
        vals = []
        for level in range(2, 7):
            diff = closed - volkenborn_partial_sum(beta, q, p, level)
            vals.append(padic_valuation(diff, p))
        for a, b in zip(vals, vals[1:]):
            assert (a < b) or (a == math.inf and b == math.inf)


def test_partial_sums_converge_to_fermionic_rule_in_the_5_adic_metric():
    p, q = 5, F(6)
    for beta in range(4):
        closed = constant_part(fermionic(Laurent({beta: 1}), q))
        vals = []
        for level in range(2, 7):
            diff = closed - fermionic_partial_sum(beta, q, p, level)
            vals.append(padic_valuation(diff, p))
        for a, b in zip(vals, vals[1:]):
            assert (a < b) or (a == math.inf and b == math.inf)


def test_closed_form_partial_sum_matches_literal_summation():
    for beta in (0, 1, 3):
        assert volkenborn_partial_sum(beta, F(6), 5, 2) == volkenborn_direct_sum(
            beta, F(6), 5, 2
        )
