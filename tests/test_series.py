import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.rings import Laurent
from qbernstein.series import Series, exp_series

from oracles import random_fraction, random_series_coeffs


def test_mul_examples():
    one_plus = Series([F(1), F(1), F(0), F(0)])
    one_minus = Series([F(1), F(-1), F(0), F(0)])
    assert one_plus * one_minus == Series([F(1), F(0), F(-1), F(0)])
    e = exp_series(F(1), 10)
    assert e * e == exp_series(F(2), 10)
    assert e * Series.one(10) == e


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        Series.one(3) * Series.one(4)


def test_recip_examples():
    geom = Series([F(1), F(-1), F(0), F(0), F(0)]).recip()
    assert geom == Series([F(1)] * 5)
    e = exp_series(F(1), 9)
    assert e.recip() == exp_series(F(-1), 9)


def test_recip_is_involutive():
    rng = random.Random(3)
    for _ in range(20):
        s = Series(random_series_coeffs(rng, 9, 1))
        assert s.recip().recip() == s


def test_recip_rejects_zero_constant():
    with pytest.raises(ValueError):
        Series([F(0), F(1)]).recip()


def test_exp_log_examples():
    v = Series.monomial(1, F(1), 8)
    assert v.exp() == exp_series(F(1), 8)
    log_one_plus = Series([F(1), F(1)] + [F(0)] * 7).log()
    expected = [F(0)] + [F((-1) ** (n - 1), n) for n in range(1, 9)]
    assert log_one_plus == Series(expected)


def test_exp_log_are_mutually_inverse():
    rng = random.Random(9)
    for _ in range(20):
        s = Series(random_series_coeffs(rng, 10, 0))
        assert s.exp().log() == s
        t = Series(random_series_coeffs(rng, 10, 1))
        assert t.log().exp() == t


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        Series([F(1), F(1)]).exp()
    with pytest.raises(ValueError):
        Series([F(2), F(1)]).log()
    with pytest.raises(ValueError):
        Series([F(2), F(1)]).pow(F(1, 2))


def test_pow_examples():
    one_plus = Series([F(1), F(1)] + [F(0)] * 4)
    assert one_plus.pow(F(1, 2)).coeffs[2] == F(-1, 8)
    s = Series(random_series_coeffs(random.Random(1), 6, 1))
    assert s.pow(0) == Series.one(6)


def test_pow_additivity():
    rng = random.Random(15)
    for _ in range(20):
        s = Series(random_series_coeffs(rng, 8, 1))
        b1, b2 = random_fraction(rng), random_fraction(rng)
        assert s.pow(b1 + b2) == s.pow(b1) * s.pow(b2)


def test_integer_pow_matches_repeated_multiplication():
    rng = random.Random(27)
    for _ in range(10):
        s = Series(random_series_coeffs(rng, 8, 1))
        m = rng.randrange(0, 5)
        direct = Series.one(8)
        for _ in range(m):
            direct = direct * s
        assert s.pow(m) == direct


def test_derive_examples():
    e = exp_series(F(1), 7)
    assert e.derive() == exp_series(F(1), 6)
    cubed = Series.monomial(3, F(1), 5)
    assert cubed.derive() == Series.monomial(2, F(3), 4)
    assert Series.one(4).derive() == Series.zero(3)


def test_derive_of_exp_is_product_rule():
    rng = random.Random(40)
    for _ in range(15):
        s = Series(random_series_coeffs(rng, 9, 0))
        lhs = s.exp().derive()
        rhs = s.derive() * s.exp().truncate(8)
        assert lhs == rhs


def test_egf_coeff():
    e = exp_series(F(1), 8)
    assert e.egf_coeff(5) == 1
    assert exp_series(F(2), 5).egf_coeff(3) == 8
    front = Series.monomial(2, F(1, 2), 6) * exp_series(F(1), 6)
    assert front.egf_coeff(2) == 1
    with pytest.raises(ValueError):
        e.egf_coeff(9)


def test_divide_v():
    s = Series([F(0), F(0), F(3), F(5)])
    assert s.divide_v(2) == Series([F(3), F(5)])
    with pytest.raises(ValueError):
        Series([F(1), F(0)]).divide_v(1)


def test_series_over_laurent_coefficients():
    a = Laurent({1: F(1)})
    b = Laurent({-1: F(2)})
    s = Series([a, b])
    t = Series([b, a])
    assert s * t == Series([a * b, a * a + b * b])


def test_scalar_arithmetic():
    e = exp_series(F(1), 4)
    assert (e + 1).coeffs[0] == F(2)
    assert (e - 1).coeffs[0] == F(0)
    assert (2 * e).coeffs[3] == F(2, 6)
    assert (1 - e).coeffs[1] == F(-1)


def test_truncate():
    e = exp_series(F(1), 6)
    assert e.truncate(3) == exp_series(F(1), 3)
    with pytest.raises(ValueError):
        e.truncate(7)


def test_exp_series_factorial_convention():
    s = exp_series(F(3, 2), 6)
    for n in range(7):
        assert s.coeffs[n] == F(3, 2) ** n / math.factorial(n)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)
ORDER = st.integers(0, 6)


@st.composite
def unit_series(draw, orders=ORDER):
    """A series with constant term 1, of order at most 6 by default."""
    order = draw(orders)
    return Series([F(1)] + draw(st.lists(SMALL, min_size=order, max_size=order)))


@st.composite
def invertible_pair(draw):
    """Two series of one order, each with a nonzero constant term."""
    order = draw(ORDER)
    heads = st.lists(SMALL.filter(bool), min_size=2, max_size=2)
    return tuple(
        Series([head] + draw(st.lists(SMALL, min_size=order, max_size=order)))
        for head in draw(heads)
    )


@settings(max_examples=60, deadline=None)
@given(unit_series(), SMALL, SMALL)
def test_pow_exponents_add(s, a, b):
    assert s.pow(a) * s.pow(b) == s.pow(a + b)


@settings(max_examples=60, deadline=None)
@given(unit_series(st.integers(0, 8)), st.one_of(SMALL, st.integers(-4, 4)))
def test_pow_is_exp_of_scaled_log(s, e):
    """Miller's recurrence against the independent route exp(e log s), for
    rational and integer exponents of either sign."""
    assert s.pow(e) == (s.log() * e).exp()


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_exp_inverts_log(s):
    assert s.log().exp() == s


@settings(max_examples=60, deadline=None)
@given(invertible_pair())
def test_recip_is_multiplicative(pair):
    s, t = pair
    assert (s * t).recip() == s.recip() * t.recip()
