"""Each Series operation is checked against the Fraction-per-coefficient
references of ``oracles.check_against_reference`` over the domains drawn
below: orders 0..24, coefficients of ``COEFF`` (zero, integers, and
fractions in [-40, 40] with denominators up to 60, or in [-1, 1] with
denominators up to 10**6), and exponents of ``EXPONENTS`` (the bracket of
1 - x at a q-point, fractions in [-3, 3], and the integers in [-5, 5]).
The other tests, the ``*_examples`` among them, pin known values."""

import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.qcalc import QPoint
from qbernstein.series import Series, exp_series

from oracles import check_against_reference, random_series_coeffs


def test_mul_examples():
    one_plus = Series([F(1), F(1), F(0), F(0)])
    one_minus = Series([F(1), F(-1), F(0), F(0)])
    assert one_plus * one_minus == Series([F(1), F(0), F(-1), F(0)])
    e = exp_series(F(1), 10)
    assert e * e == exp_series(F(2), 10)
    assert e * Series([F(1)] + [F(0)] * 10) == e


def test_recip_examples():
    geom = Series([F(1), F(-1), F(0), F(0), F(0)]).recip()
    assert geom == Series([F(1)] * 5)
    e = exp_series(F(1), 9)
    assert e.recip() == exp_series(F(-1), 9)


def test_exp_log_examples():
    v = Series([F(0), F(1)] + [F(0)] * 7)
    assert v.exp() == exp_series(F(1), 8)
    log_one_plus = Series([F(1), F(1)] + [F(0)] * 7).log()
    expected = [F(0)] + [F((-1) ** (n - 1), n) for n in range(1, 9)]
    assert log_one_plus == Series(expected)


def test_pow_examples():
    one_plus = Series([F(1), F(1)] + [F(0)] * 4)
    assert one_plus.pow(F(1, 2)).coeffs[2] == F(-1, 8)
    s = Series(random_series_coeffs(random.Random(1), 6, 1))
    assert s.pow(0) == Series([F(1)] + [F(0)] * 6)


def test_derive_examples():
    e = exp_series(F(1), 7)
    assert e.derive() == exp_series(F(1), 6)
    cubed = Series([F(0)] * 3 + [F(1)] + [F(0)] * 2)
    assert cubed.derive() == Series([F(0)] * 2 + [F(3)] + [F(0)] * 2)
    assert Series([F(1)] + [F(0)] * 4).derive() == Series.zero(3)


def test_egf_coeff():
    e = exp_series(F(1), 8)
    assert e.egf_coeff(5) == 1
    assert exp_series(F(2), 5).egf_coeff(3) == 8
    front = Series([F(0)] * 2 + [F(1, 2)] + [F(0)] * 4) * exp_series(F(1), 6)
    assert front.egf_coeff(2) == 1


def test_scalar_arithmetic():
    e = exp_series(F(1), 4)
    assert (e + 1).coeffs[0] == F(2)
    assert (e - 1).coeffs[0] == F(0)
    assert (2 * e).coeffs[3] == F(2, 6)
    assert (1 - e).coeffs[1] == F(-1)


def test_truncate():
    e = exp_series(F(1), 6)
    assert e.truncate(3) == exp_series(F(1), 3)


def test_exp_series_factorial_convention():
    s = exp_series(F(3, 2), 6)
    for n in range(7):
        assert s.coeffs[n] == F(3, 2) ** n / math.factorial(n)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)
RHOS = [F(1, 2), F(2, 3), F(2, 5), F(3, 5), F(4, 3), F(7, 5), F(9, 5)]


@st.composite
def drawn_x1(draw):
    """The bracket of 1 - x at a drawn q-point; d up to 6 and c of either
    sign give numerators and denominators of up to about 30 bits."""
    d = draw(st.integers(1, 6))
    return QPoint(draw(st.sampled_from(RHOS)), draw(st.integers(-2 * d, 2 * d)), d).X1


EXPONENTS = st.one_of(drawn_x1(), SMALL, st.integers(-5, 5), st.just(0))
COEFF = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)


@st.composite
def coefficient_pair(draw):
    """Two coefficient lists of one order in 0..24, with zero, negative and
    mixed-denominator entries."""
    order = draw(st.integers(0, 24))
    lists = st.lists(COEFF, min_size=order + 1, max_size=order + 1)
    return draw(lists), draw(lists)


@settings(max_examples=150, deadline=None)
@given(coefficient_pair(), COEFF, EXPONENTS)
def test_every_operation_matches_the_fraction_reference(pair, c, z):
    check_against_reference(*pair, c, z)
