"""Checks of the law tables against sympy, which shares no code with the
engine: the partial Bell polynomials of sympy's combinatorics for
``prob_stirling2``, sympy's own series expansion of each law's closed-form
MGF, raised to a rational power, for ``MgfTable.power``, and sympy's
derivative of that closed form for the ODE each law states.  The same
expansions check ``tests/oracles.py``'s ``mgf_oracle``, which builds two of
the laws with the engine's own ``Series.recip``."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Geometric,
    MgfTable,
    NegBinomial,
    Poisson,
    Uniform01,
)
from qbernstein.families import prob_qbernstein, prob_stirling2
from qbernstein.qcalc import QPoint

from closed_forms import CLOSED_MGFS, E, R, expansion, fraction, mgf_oracle_misses, v
from oracles import bernoulli_moment, binomial_moment, touchard, uniform_moment


def _sympy_bell(moments, n, m) -> F:
    """B_(n,m)(mu_1, .., mu_(n-m+1)) by sympy."""
    symbols = [sympy.Rational(mu.numerator, mu.denominator) for mu in moments[1 : n - m + 2]]
    return fraction(sympy.bell(n, m, symbols))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=1, max_size=10))
def test_prob_stirling2_is_sympys_partial_bell_polynomial(tail):
    law = CustomMoments((F(1), *tail))
    top = len(tail)
    for n in range(top + 1):
        for m in range(n + 1):
            assert prob_stirling2(law, n, m) == _sympy_bell(law.moments, n, m)


NAMED_MOMENTS = [
    (Poisson(F(3, 2)), lambda k: touchard(k, F(3, 2))),
    (Bernoulli(F(2, 7)), lambda k: bernoulli_moment(F(2, 7), k)),
    (Binomial(3, F(1, 4)), lambda k: binomial_moment(3, F(1, 4), k)),
    (Uniform01(), uniform_moment),
]


@pytest.mark.parametrize(
    "law, moment", NAMED_MOMENTS, ids=[law.name for law, _ in NAMED_MOMENTS]
)
def test_prob_stirling2_of_a_named_law_is_sympys_partial_bell_polynomial(law, moment):
    top = 10
    moments = [moment(k) for k in range(top + 1)]
    for n in range(top + 1):
        for m in range(n + 1):
            assert prob_stirling2(law, n, m) == _sympy_bell(moments, n, m)


def test_uniform01_bell_numbers_are_sympys_stirling_expansion():
    """B_(n,m) of Uniform01 for m <= n <= 24 is n!/m! sum over j of C(m, j)
    (-1)^(m-j) j! S(n + j, j)/(n + j)!, the coefficient of (M - 1)^m with
    M = (e^v - 1)/v expanded by the EGF of the Stirling numbers S (sympy's
    ``stirling``)."""
    law = Uniform01()
    for n in range(25):
        for m in range(n + 1):
            total = sum(
                math.comb(m, j) * (-1) ** (m - j) * math.factorial(j)
                * F(int(stirling(n + j, j)), math.factorial(n + j))
                for j in range(m + 1)
            )
            assert prob_stirling2(law, n, m) == total * math.factorial(n) / math.factorial(m)


# law, z, the closed form of M^z as a function of z, and the order checked;
# Poisson's exp(exp) is the slow one to expand, so it is checked lower.
CLOSED_POWERS = [
    (Bernoulli(F(2, 5)), F(-2, 3), lambda z: (R(3, 5) + R(2, 5) * E) ** z, 8),
    (Binomial(3, F(1, 4)), F(1, 2), lambda z: (R(3, 4) + R(1, 4) * E) ** (3 * z), 8),
    (Geometric(F(2, 5)), F(5, 3), lambda z: (R(2, 5) * E / (1 - R(3, 5) * E)) ** z, 8),
    (NegBinomial(2, F(2, 3)), F(-1, 4),
     lambda z: (R(2, 3) * E / (1 - R(1, 3) * E)) ** (2 * z), 8),
    (Uniform01(), F(-2, 3), lambda z: ((E - 1) / v) ** z, 8),
    (Constant(F(5, 2)), F(3, 7), lambda z: sympy.exp(R(5, 2) * z * v), 8),
    (Poisson(F(3, 2)), F(-2, 3), lambda z: sympy.exp(z * R(3, 2) * (E - 1)), 6),
]


@pytest.mark.parametrize(
    "law, z, form, order", CLOSED_POWERS, ids=[law.name for law, *_ in CLOSED_POWERS]
)
def test_table_power_is_sympys_series_of_the_closed_form(law, z, form, order):
    """M^z from the table, read at every order through ``order``, against
    sympy's expansion of the closed form at v = 0."""
    expected = expansion(form(R(z.numerator, z.denominator)), order)
    table = MgfTable(law)
    for n in range(order + 1):
        assert table.power(z, n).coeffs == expected[: n + 1]


@pytest.mark.parametrize("law, mgf", CLOSED_MGFS, ids=[law.name for law, _ in CLOSED_MGFS])
def test_each_law_states_the_ode_its_closed_form_mgf_solves(law, mgf):
    """The closed-form M solves (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M for
    the integers (Q0, Q1, P1, S) the law states; with S > 0 the ODE is regular
    at v = 0, so M(0) = 1 fixes its power-series solution."""
    q0, q1, p1, s = ode = law._ode()
    assert all(type(x) is int for x in ode) and s > 0
    assert mgf.subs(v, 0) == 1
    residual = (s - p1 + p1 * E) * sympy.diff(mgf, v) - (q0 + q1 * E) * mgf
    assert sympy.simplify(residual) == 0


@pytest.mark.parametrize("law, mgf", CLOSED_MGFS, ids=[law.name for law, _ in CLOSED_MGFS])
def test_mgf_oracle_is_sympys_series_of_the_closed_form(law, mgf):
    assert mgf_oracle_misses(law, mgf) == []


# one rational q-point per closed form, q below and above 1
QPOINTS = [QPoint(F(3, 2), 1, 3), QPoint(F(2, 5), 1, 2), QPoint(F(4, 3), 3, 4),
           QPoint(F(3, 5), 2, 3), QPoint(F(7, 5), 1, 2), QPoint(F(2, 3), 1, 4)]


@pytest.mark.parametrize(
    "law, mgf, p", [(*pair, p) for pair, p in zip(CLOSED_MGFS, QPOINTS)],
    ids=[law.name for law, _ in CLOSED_MGFS],
)
def test_prob_qbernstein_is_sympys_coefficient_of_the_generating_function(law, mgf, p):
    """prob_qbernstein(d, r, n, p) for r <= n <= 8 is n! times the coefficient
    of v^n in (v X)^r / r! M^X1, that is n! X^r / r! times the coefficient of
    v^(n - r) in sympy's expansion of M^X1, with M the closed form and X, X1
    the point's brackets."""
    order = 5 if law.name == "poisson" else 8  # exp(exp) is slow to expand
    x, x1 = (R(b.numerator, b.denominator) for b in (p.X, p.X1))
    power = sympy.series(mgf**x1, v, 0, order + 1).removeO()
    for n in range(order + 1):
        for r in range(n + 1):
            expected = x**r / math.factorial(r) * power.coeff(v, n - r) * math.factorial(n)
            assert prob_qbernstein(law, r, n, p) == fraction(expected), (r, n)
