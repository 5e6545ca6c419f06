import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
)
from qbernstein.families import (
    bell_poly,
    bernstein_classical,
    euler_poly,
    frobenius_euler,
    higher_bernoulli,
    prob_bernoulli,
    prob_bernoulli_higher,
    prob_euler,
    prob_qbernstein,
    prob_qbernstein_gf,
    prob_qbernstein_laurent,
    prob_stirling2,
    qbernstein,
    stirling2,
)
from qbernstein.qcalc import QPoint
from qbernstein.series import Series, exp_series

from oracles import reference_qbernstein_laurent, set_partition_count

SIX_LAWS = [
    Poisson(F(2, 3)),
    Bernoulli(F(1, 2)),
    Binomial(3, F(1, 3)),
    Geometric(F(1, 2)),
    NegBinomial(2, F(2, 3)),
    Uniform01(),
]

POINT = QPoint(F(2, 3), 1, 2)


def _stirling_recurrence(n, m, memo={}):
    if (n, m) in memo:
        return memo[n, m]
    if n == 0:
        value = 1 if m == 0 else 0
    elif m == 0 or m > n:
        value = 0
    else:
        value = m * _stirling_recurrence(n - 1, m) + _stirling_recurrence(
            n - 1, m - 1
        )
    memo[n, m] = value
    return value


def test_stirling2_against_brute_force_partitions():
    for n in range(9):
        for m in range(n + 2):
            assert stirling2(n, m) == set_partition_count(n, m)


def test_stirling2_against_recurrence():
    for n in range(13):
        for m in range(13):
            assert stirling2(n, m) == _stirling_recurrence(n, m)


def test_stirling2_edge_values():
    assert stirling2(4, 2) == 7
    for n in range(1, 10):
        assert stirling2(n, n) == 1
        assert stirling2(n, 0) == 0


def _sympy_rational(value) -> F:
    return F(int(value.p), int(value.q))


def test_classical_families_against_sympy():
    """sympy computes these numbers and polynomials by its own routes."""
    import sympy
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(12):
        for m in range(n + 2):
            assert stirling2(n, m) == int(stirling(n, m))
        for x in (F(0), F(1, 2), F(-2, 3), F(3)):
            sx = sympy.Rational(x.numerator, x.denominator)
            assert bell_poly(n, x) == _sympy_rational(sympy.bell(n, sx))
            assert higher_bernoulli(n, 1, x) == _sympy_rational(sympy.bernoulli(n, sx))
            assert euler_poly(n, x) == _sympy_rational(sympy.euler(n, sx))


def test_prob_stirling2_first_value_is_the_mean():
    for law in SIX_LAWS:
        assert prob_stirling2(law, 1, 1) == law.moment(1)


def test_prob_stirling2_is_lower_triangular():
    for law in SIX_LAWS:
        for m in range(1, 7):
            for n in range(m):
                assert prob_stirling2(law, n, m) == 0


def test_prob_stirling2_against_closed_forms():
    """Bernoulli: M - 1 = p (e^v - 1), so the value is p^m S(n, m).  Poisson:
    M - 1 = e^(alpha (e^v - 1)) - 1, and composing the two exponential
    generating functions gives the sum over j of alpha^j S(n, j) S(j, m).
    Queried in shuffled order at laws no other test uses, so the powers of
    M - 1 are built on demand from whatever prefix is already there."""
    alpha, p1 = F(5, 7), F(2, 9)
    poisson, bernoulli = Poisson(alpha), Bernoulli(p1)
    pairs = [(n, m) for n in range(9) for m in range(n + 2)]
    random.Random(88).shuffle(pairs)
    s = set_partition_count
    for n, m in pairs:
        assert prob_stirling2(bernoulli, n, m) == p1**m * s(n, m)
        assert prob_stirling2(poisson, n, m) == sum(
            alpha**j * s(n, j) * s(j, m) for j in range(n + 1)
        )


def test_bell_poly_values():
    assert bell_poly(0, F(7)) == 1
    for x in (F(0), F(1), F(-3, 2), F(2, 7), F(5)):
        assert bell_poly(2, x) == x * x + x
    assert bell_poly(3, F(1)) == 5
    # agreement with the unit-law partition numbers
    for n in range(8):
        assert bell_poly(n, F(1)) == sum(stirling2(n, m) for m in range(n + 1))


def test_higher_bernoulli_values():
    assert higher_bernoulli(1, 1, F(0)) == F(-1, 2)
    assert higher_bernoulli(0, F(5, 2), F(9)) == 1
    for n in range(6):
        assert higher_bernoulli(n, 0, F(3)) == F(3) ** n
    # classical first-order values
    assert higher_bernoulli(2, 1, F(0)) == F(1, 6)
    assert higher_bernoulli(4, 1, F(0)) == F(-1, 30)


def test_euler_poly_values():
    assert euler_poly(0, F(4)) == 1
    assert euler_poly(1, F(0)) == F(-1, 2)
    for n in (1, 3, 5):  # the centered generating function is even in v
        assert euler_poly(n, F(1, 2)) == 0
    assert euler_poly(3, F(0)) == F(1, 4)


def test_frobenius_euler_reduces_to_euler():
    for n in range(7):
        for x in (F(0), F(2, 3)):
            assert frobenius_euler(n, 1, x, F(-1)) == euler_poly(n, x)
    assert frobenius_euler(0, F(3), F(1), F(2)) == 1
    for n in range(5):
        assert frobenius_euler(n, 0, F(2, 7), F(5)) == F(2, 7) ** n
    with pytest.raises(ValueError):
        frobenius_euler(2, 1, F(0), F(1))


def test_prob_families_reduce_to_classical_at_unit_law():
    one = Constant(F(1))
    for n in range(8):
        for x in (F(0), F(1, 2), F(2, 3)):
            assert prob_bernoulli(one, n, x) == higher_bernoulli(n, 1, x)
        assert prob_bernoulli_higher(one, n, 1, F(1, 3)) == higher_bernoulli(
            n, 1, F(1, 3)
        )
        assert prob_bernoulli_higher(one, n, 3, F(1, 3)) == higher_bernoulli(
            n, 3, F(1, 3)
        )


def test_prob_families_trivial_indices():
    for law in SIX_LAWS:
        assert prob_euler(law, 0, F(2, 5)) == 1
        # with zero-th power the generating factor is 1, so only index 0 lives
        assert prob_bernoulli_higher(law, 0, 0, F(0)) == 1
        assert prob_bernoulli_higher(law, 3, 0, F(0)) == 0
        assert prob_bernoulli(law, 0, F(0)) == 1 / law.moment(1)


def test_prob_bernoulli_higher_rejects_zero_mean():
    """At r = 0 the value is the coefficient of M^z and needs no mean, so a
    mean-zero law is fine there; at r = 1 v/(M - 1) is undefined."""
    dead = Constant(F(0))
    assert prob_bernoulli_higher(dead, 0, 0, F(1)) == 1
    assert prob_bernoulli_higher(dead, 2, 0, F(1)) == 0
    with pytest.raises(ValueError):
        prob_bernoulli_higher(dead, 2, 1, F(1))


def test_prob_bernoulli_higher_at_r_0_reads_moments_through_n():
    """At r = 0 the value is n! [v^n] M^z, which needs M only through n: on a
    law with exactly n + 1 moments it equals prob_qbernstein at r = 0 with
    z the bracket of 1 - x, the same coefficient by the table's route."""
    p = QPoint(F(1, 2), 1, 2)
    for n in range(5):
        law = CustomMoments(tuple(F(k * k + 1, k + 1) for k in range(n + 1)))
        assert prob_bernoulli_higher(law, n, 0, p.X1) == prob_qbernstein(law, 0, n, p)
    assert prob_bernoulli_higher(CustomMoments((1, 1, 2)), 2, 0, p.X1) == F(10, 9)


def test_bernstein_classical_values():
    assert bernstein_classical(1, 2, F(1, 2)) == F(1, 2)
    for n in range(5):
        assert bernstein_classical(0, n, F(0)) == 1
    assert sum(bernstein_classical(r, 3, F(2, 7)) for r in range(4)) == 1
    with pytest.raises(ValueError):
        bernstein_classical(3, 2, F(1, 2))


def test_bernstein_closed_form_equals_series_route():
    for n in range(11):
        for r in range(n + 1):
            for x in (F(1, 3), F(2, 7), F(5, 4)):
                front = Series(
                    [F(0)] * r + [x**r * F(1, math.factorial(r))] + [F(0)] * (n - r)
                )
                series = front * exp_series(1 - x, n)
                assert bernstein_classical(r, n, x) == series.egf_coeff(n)


def _random_points(count, seed):
    rng = random.Random(seed)
    rhos = [F(1, 2), F(2, 3), F(3, 4), F(4, 3), F(3, 2)]
    out = []
    for _ in range(count):
        d = rng.choice([2, 3, 4])
        out.append(QPoint(rng.choice(rhos), rng.randrange(1, d), d))
    return out


def test_qbernstein_closed_form_equals_series_route():
    for p in _random_points(5, 601):
        x_val, one_minus = p.X, p.X1
        for n in range(11):
            for r in range(n + 1):
                front = Series(
                    [F(0)] * r + [x_val**r * F(1, math.factorial(r))] + [F(0)] * (n - r)
                )
                series = front * exp_series(one_minus, n)
                assert qbernstein(r, n, p) == series.egf_coeff(n)


def test_qbernstein_values():
    assert qbernstein(1, 2, POINT) == F(18, 25)
    assert qbernstein(3, 3, POINT) == POINT.X**3
    classical = QPoint.classical(F(2, 7))
    for n in range(7):
        for r in range(n + 1):
            assert qbernstein(r, n, classical) == bernstein_classical(r, n, F(2, 7))


def test_prob_qbernstein_reductions():
    one = Constant(F(1))
    for p in _random_points(3, 77):
        for n in range(7):
            for r in range(n + 1):
                assert prob_qbernstein(one, r, n, p) == qbernstein(r, n, p)
    classical = QPoint.classical(F(1, 3))
    for n in range(7):
        for r in range(n + 1):
            assert prob_qbernstein(one, r, n, classical) == bernstein_classical(
                r, n, F(1, 3)
            )


def test_prob_qbernstein_examples():
    assert prob_qbernstein(Bernoulli(F(1, 2)), 0, 1, POINT) == F(3, 10)
    for law in SIX_LAWS:
        assert prob_qbernstein(law, 4, 4, POINT) == POINT.X**4
    with pytest.raises(ValueError):
        prob_qbernstein(Uniform01(), 3, 2, POINT)


def test_generating_function_equals_the_product_route():
    """The generating function, M^X1 from the law's table shifted up by r,
    equals the full product of the monomial with M^X1 built without the
    table, at every 0 <= r <= order <= 8."""
    custom = CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(9)))
    for law in SIX_LAWS + [Constant(F(2)), custom]:
        for p in (POINT, QPoint.classical(F(2, 5))):
            x_val, one_minus = p.X, p.X1
            for order in range(9):
                power = law.mgf_series(order).pow(one_minus)
                for r in range(order + 1):
                    front = Series(
                        [F(0)] * r + [x_val**r / math.factorial(r)] + [F(0)] * (order - r)
                    )
                    assert prob_qbernstein_gf(law, r, p, order) == front * power
                assert prob_qbernstein_gf(law, -1, p, order) == Series.zero(order)
                with pytest.raises(ValueError, match="outside truncation order"):
                    prob_qbernstein_gf(law, order + 1, p, order)


def test_prob_qbernstein_laurent_matches_scalar_route():
    """The Laurent route (expansion over prob_stirling2) substituted at a
    point equals the scalar route (Series.pow at the rational bracket)."""
    custom = CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(11)))
    laws = SIX_LAWS + [Constant(F(2)), Constant(F(0)), custom]
    points = _random_points(len(laws), 906)
    for law, p in zip(laws, points):
        for n in range(11):
            for r in range(n + 1):
                lau = prob_qbernstein_laurent(law, r, n, p.q)
                assert lau.substitute(p.t) == prob_qbernstein(law, r, n, p)


@pytest.mark.parametrize("q", [F(2, 5), F(81, 256), F(7, 4), F(3, 2)])
def test_prob_qbernstein_laurent_is_the_ring_horner_coefficientwise(q):
    """The integer Horner in s = 1/t equals, t-exponent by t-exponent, the
    Horner in the falling-factorial basis run in the Laurent ring, at q below
    and above 1, so that b - a takes both signs."""
    custom = CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(11)))
    for law in SIX_LAWS + [Constant(F(2)), Constant(F(0)), custom]:
        for n in range(11):
            for r in range(n + 1):
                expected = reference_qbernstein_laurent(law, r, n, q)
                assert prob_qbernstein_laurent(law, r, n, q) == expected, (law, r, n)


@pytest.mark.parametrize(
    "p", [QPoint(F(3, 2), 1, 3), QPoint.classical(F(2, 5))], ids=["q-point", "classical"]
)
def test_prob_qbernstein_reads_the_coefficient_of_the_generating_function(p):
    """The single-coefficient read equals the exponential coefficient of the
    whole generating function, with every law's table cold at first and then
    warm from lower n."""
    custom = CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(11)))
    for law in SIX_LAWS + [Constant(F(0)), Constant(F(2)), custom]:
        for n in range(11):
            for r in range(n + 1):
                expected = prob_qbernstein_gf(law, r, p, n).egf_coeff(n)
                assert prob_qbernstein(law, r, n, p) == expected


CLOSED_FORM_LAWS = SIX_LAWS + [
    Constant(F(1)),
    CustomMoments(tuple(F(1 + k * k, k + 1) for k in range(13))),
]


@st.composite
def value_points(draw):
    """A q-point with rho on either side of 1 and 0 <= c <= 2d, or a
    classical point."""
    if draw(st.booleans()):
        return QPoint.classical(draw(st.sampled_from([F(0), F(1), F(-2, 3), F(5, 2)])))
    d = draw(st.integers(1, 4))
    rho = draw(st.sampled_from([F(1, 3), F(2, 3), F(3, 2), F(5, 2)]))
    return QPoint(rho, draw(st.integers(0, 2 * d)), d)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(CLOSED_FORM_LAWS),
    value_points(),
    st.integers(0, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
)
def test_closed_forms_equal_the_fraction_product(law, p, rn):
    """Each closed form, built as one Fraction from integer parts, equals the
    product of its Fraction factors; M^X1 is taken from Series.pow, not the
    law's table."""
    r, n = rn
    k = n - r
    tail = law.mgf_series(k).pow(p.X1).coeffs[k]
    value = prob_qbernstein(law, r, n, p)
    assert type(value) is F
    assert value == math.perm(n, k) * p.X**r * tail
    closed = qbernstein(r, n, p)
    assert type(closed) is F
    assert closed == math.comb(n, r) * p.X**r * p.X1**k


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: prob_qbernstein(Poisson(F(1)), 3, 2, POINT),
            "lower index 3 exceeds upper index 2",
            id="r-above-n",
        ),
        pytest.param(
            lambda: prob_qbernstein(Poisson(F(1)), 0, -1, POINT),
            "indices must be nonnegative",
            id="negative-n",
        ),
        pytest.param(
            lambda: prob_qbernstein(Poisson(F(1)), 0, 2, QPoint(F(1), 1, 2)),
            "rho must be a positive rational different from 1",
            id="bad-point",
        ),
        pytest.param(
            lambda: prob_qbernstein_laurent(Poisson(F(1)), 0, 2, F(1)),
            "q must be a positive rational different from 1",
            id="bad-q",
        ),
        pytest.param(
            lambda: prob_qbernstein(CustomMoments((F(1), F(2), F(5))), 1, 5, POINT),
            "only 3 moments provided, order 4 requested",
            id="short-moments",
        ),
    ],
)
def test_family_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_prob_qbernstein_laurent_trivial_forms():
    from qbernstein.qcalc import bracket_in_t

    q = F(4, 9)
    one = Constant(F(1))
    for r in range(4):
        assert prob_qbernstein_laurent(one, r, r, q) == bracket_in_t(q) ** r
    assert prob_qbernstein_laurent(Uniform01(), 0, 0, q) == 1


def test_corrected_derivative_identity_for_all_six_laws():
    """Series-level product-rule recurrence with the exact logarithmic factor."""
    order = 9
    for law in SIX_LAWS:
        for p in _random_points(2, 13):
            x_val, one_minus = p.X, p.X1
            m_series = law.mgf_series(order)
            powered = m_series.pow(one_minus)

            def gf(rr):
                if rr < 0:
                    return Series.zero(order)
                front = [F(0)] * rr + [x_val**rr * F(1, math.factorial(rr))]
                return Series(front + [F(0)] * (order - rr)) * powered

            ratio = m_series.derive() * m_series.recip().truncate(order - 1)
            for r in range(4):
                lhs = gf(r).derive()
                rhs = (x_val * gf(r - 1)).truncate(order - 1) + one_minus * (
                    gf(r).truncate(order - 1) * ratio
                )
                assert lhs == rhs
