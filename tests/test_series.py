import math
import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.qcalc import QPoint
from qbernstein.series import Series, exp_series

from oracles import check_against_reference, random_fraction, random_series_coeffs


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


def test_recip_is_involutive():
    rng = random.Random(3)
    for _ in range(20):
        s = Series(random_series_coeffs(rng, 9, 1))
        assert s.recip().recip() == s


def test_exp_log_examples():
    v = Series([F(0), F(1)] + [F(0)] * 7)
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


def test_pow_examples():
    one_plus = Series([F(1), F(1)] + [F(0)] * 4)
    assert one_plus.pow(F(1, 2)).coeffs[2] == F(-1, 8)
    s = Series(random_series_coeffs(random.Random(1), 6, 1))
    assert s.pow(0) == Series([F(1)] + [F(0)] * 6)


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
        direct = Series([F(1)] + [F(0)] * 8)
        for _ in range(m):
            direct = direct * s
        assert s.pow(m) == direct


def test_derive_examples():
    e = exp_series(F(1), 7)
    assert e.derive() == exp_series(F(1), 6)
    cubed = Series([F(0)] * 3 + [F(1)] + [F(0)] * 2)
    assert cubed.derive() == Series([F(0)] * 2 + [F(3)] + [F(0)] * 2)
    assert Series([F(1)] + [F(0)] * 4).derive() == Series.zero(3)


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
ORDER = st.integers(0, 6)


@st.composite
def unit_series(draw, orders=ORDER):
    """A series with constant term 1, of order at most 6 by default."""
    order = draw(orders)
    return Series([F(1)] + draw(st.lists(SMALL, min_size=order, max_size=order)))


@st.composite
def invertible_series(draw, orders=ORDER):
    """A series with any nonzero rational constant term, of order at most 6
    by default."""
    order = draw(orders)
    head = draw(SMALL.filter(bool))
    return Series([head] + draw(st.lists(SMALL, min_size=order, max_size=order)))


@st.composite
def invertible_pair(draw):
    """Two series of one order, each with a nonzero constant term."""
    orders = st.just(draw(ORDER))
    return draw(invertible_series(orders)), draw(invertible_series(orders))


RHOS = [F(1, 2), F(2, 3), F(2, 5), F(3, 5), F(4, 3), F(7, 5), F(9, 5)]


@st.composite
def drawn_x1(draw):
    """The bracket of 1 - x at a drawn q-point; d up to 6 and c of either
    sign give numerators and denominators of up to about 30 bits."""
    d = draw(st.integers(1, 6))
    return QPoint(draw(st.sampled_from(RHOS)), draw(st.integers(-2 * d, 2 * d)), d).X1


EXPONENTS = st.one_of(drawn_x1(), SMALL, st.integers(-5, 5), st.just(0))
WIDE = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(unit_series(), SMALL, SMALL)
def test_pow_exponents_add(s, a, b):
    assert s.pow(a) * s.pow(b) == s.pow(a + b)


@settings(max_examples=60, deadline=None)
@given(unit_series(st.integers(0, 24)), EXPONENTS)
def test_pow_is_exp_of_scaled_log(s, e):
    """The integer form of Miller's recurrence against the independent route
    exp(e log s), plain Fraction arithmetic, at orders up to 24, for the
    bracket of 1 - x at a q-point and for rational and integer exponents of
    either sign, zero among them."""
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


@settings(max_examples=60, deadline=None)
@given(invertible_series())
def test_recip_times_series_is_one(s):
    """Checked through __mul__, not the power kernel, at constant terms other
    than 1: the reciprocal must undo its rescale by the constant term."""
    assert s * s.recip() == Series([F(1)] + [F(0)] * s.order)


@settings(max_examples=60, deadline=None)
@given(unit_series(), st.integers(1, 6))
def test_negative_power_inverts_positive_power(s, k):
    assert s.pow(-k) * s.pow(k) == Series([F(1)] + [F(0)] * s.order)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda top: st.tuples(
            st.lists(WIDE, min_size=top, max_size=top),
            st.lists(st.integers(0, top), min_size=1, max_size=6),
        )
    ),
    EXPONENTS,
)
def test_pow_grown_in_steps_is_exp_of_scaled_log(drawn, e):
    """Powers of the prefixes of one series at random orders: the common
    denominator of each prefix differs, and each power is computed from its
    own; every one equals exp(e log A) at that order, so each is a prefix of
    the power at any higher order."""
    tail, stops = drawn
    a = [F(1)] + tail
    expected = (Series(a).log() * e).exp()
    for n in sorted(stops):
        assert Series(a[: n + 1]).pow(e) == expected.truncate(n)


COEFF = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)


@st.composite
def coefficient_pair(draw):
    """Two coefficient lists of one order in 0..12, with zero, negative and
    mixed-denominator entries."""
    order = draw(st.integers(0, 12))
    lists = st.lists(COEFF, min_size=order + 1, max_size=order + 1)
    return draw(lists), draw(lists)


@settings(max_examples=150, deadline=None)
@given(coefficient_pair(), COEFF, EXPONENTS)
def test_every_operation_matches_the_fraction_reference(pair, c, z):
    check_against_reference(*pair, c, z)
