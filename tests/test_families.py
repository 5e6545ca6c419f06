"""Each family of ``qbernstein.families`` against a reference computed
another way: ``stirling2`` against counted set partitions and sympy;
``bell_poly``, ``higher_bernoulli`` and ``euler_poly`` against sympy;
``frobenius_euler`` and the law-dependent Bernoulli and Euler families
against the classical families they reduce to; ``prob_stirling2`` against its
closed forms at a Bernoulli and a Poisson law; ``qbernstein`` against the
product of its Fraction factors; every route to B^Y_(r,n)(x|q), and
``prob_bernoulli_higher`` at r = 0, against ``oracles.reference_qbernstein_gf``,
(v X)^r / r! M^X1 by Miller's recurrence in Fractions; and
``prob_qbernstein_laurent`` in t against ``oracles.reference_qbernstein_laurent``,
Horner's rule in the Laurent ring."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.audit import RHO_GRID
from qbernstein.distributions import (
    Bernoulli,
    Constant,
    CustomMoments,
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
    prob_qbernstein_laurent,
    prob_stirling2,
    qbernstein,
    stirling2,
)
from qbernstein.qcalc import QPoint, bracket_in_t

from oracles import (
    SIX_LAWS,
    custom_law,
    qbernstein_route_misses,
    reference_qbernstein_gf,
    reference_qbernstein_laurent,
    set_partition_count,
)

POINT = QPoint(F(2, 3), 1, 2)


def test_stirling2_against_brute_force_partitions():
    for n in range(9):
        for m in range(n + 2):
            assert stirling2(n, m) == set_partition_count(n, m)


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

    for n in range(13):
        for m in range(13):
            assert stirling2(n, m) == int(stirling(n, m))
    for n in range(12):
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


def test_prob_bernoulli_higher_at_r_0_reads_moments_through_n():
    """At r = 0 the value is n! [v^n] M^z, which needs M only through n: on a
    law with exactly n + 1 moments it equals the Fraction reference of
    B^Y_(0,n) with z the bracket of 1 - x.  It reads no mean, so a law of
    mean zero has a value there."""
    p = QPoint(F(1, 2), 1, 2)
    for n in range(5):
        law = custom_law(n + 1)
        reference = math.factorial(n) * reference_qbernstein_gf(law, 0, p, n)[n]
        assert prob_bernoulli_higher(law, n, 0, p.X1) == reference
    assert prob_bernoulli_higher(CustomMoments((1, 1, 2)), 2, 0, p.X1) == F(10, 9)
    dead = Constant(F(0))
    assert prob_bernoulli_higher(dead, 0, 0, F(1)) == 1
    assert prob_bernoulli_higher(dead, 2, 0, F(1)) == 0


def test_bernstein_classical_values():
    assert bernstein_classical(1, 2, F(1, 2)) == F(1, 2)
    for n in range(5):
        assert bernstein_classical(0, n, F(0)) == 1
    assert sum(bernstein_classical(r, 3, F(2, 7)) for r in range(4)) == 1


def test_qbernstein_values():
    assert qbernstein(1, 2, POINT) == F(18, 25)
    assert qbernstein(3, 3, POINT) == POINT.X**3


def test_prob_qbernstein_examples():
    assert prob_qbernstein(Bernoulli(F(1, 2)), 0, 1, POINT) == F(3, 10)
    for law in SIX_LAWS:
        assert prob_qbernstein(law, 4, 4, POINT) == POINT.X**4


@pytest.mark.parametrize("q", [F(2, 5), F(81, 256), F(7, 4), F(3, 2)])
def test_prob_qbernstein_laurent_is_the_ring_horner_coefficientwise(q):
    """The integer Horner in s = 1/t equals, t-exponent by t-exponent, the
    Horner in the falling-factorial basis run in the Laurent ring, at q below
    and above 1, so that b - a takes both signs."""
    for law in SIX_LAWS + [Constant(F(2)), Constant(F(0)), custom_law(11)]:
        for n in range(11):
            for r in range(n + 1):
                expected = reference_qbernstein_laurent(law, r, n, q)
                assert prob_qbernstein_laurent(law, r, n, q) == expected, (law, r, n)


REFERENCE_LAWS = SIX_LAWS + [Constant(F(0)), Constant(F(1)), Constant(F(2)), custom_law(13)]
# the audit's bases, and one further base on each side of 1
RHOS = RHO_GRID + [F(1, 3), F(5, 2)]


@st.composite
def value_points(draw):
    """A q-point with rho in RHOS and 0 <= c <= 2d, or a classical point with
    x in [-3, 3]."""
    if draw(st.booleans()):
        return QPoint.classical(draw(st.fractions(-3, 3, max_denominator=9)))
    d = draw(st.integers(1, 4))
    return QPoint(draw(st.sampled_from(RHOS)), draw(st.integers(0, 2 * d)), d)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REFERENCE_LAWS), value_points(), st.integers(0, 12))
def test_every_route_matches_the_fraction_reference(law, p, n):
    """At every r <= n, the whole generating function, the table's read of
    its coefficient n, the Laurent route at t and the closed form of
    qbernstein each equal the Fraction reference (v X)^r / r! M^X1."""
    assert qbernstein_route_misses(law, p, n) == []


def test_prob_qbernstein_laurent_trivial_forms():
    q = F(4, 9)
    one = Constant(F(1))
    for r in range(4):
        assert prob_qbernstein_laurent(one, r, r, q) == bracket_in_t(q) ** r
    assert prob_qbernstein_laurent(Uniform01(), 0, 0, q) == 1
