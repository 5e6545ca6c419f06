import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.qcalc import QPoint
from qbernstein.rings import Laurent
from qbernstein import series
from qbernstein.series import Series, exp_series

from oracles import (
    random_fraction,
    random_series_coeffs,
    reference_exp,
    reference_log,
    reference_mul,
    reference_pow,
    reference_recip,
)


def test_mul_examples():
    one_plus = Series([F(1), F(1), F(0), F(0)])
    one_minus = Series([F(1), F(-1), F(0), F(0)])
    assert one_plus * one_minus == Series([F(1), F(0), F(-1), F(0)])
    e = exp_series(F(1), 10)
    assert e * e == exp_series(F(2), 10)
    assert e * Series([F(1)] + [F(0)] * 10) == e


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        Series([F(1)] + [F(0)] * 3) * Series([F(1)] + [F(0)] * 4)


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
    with pytest.raises(ValueError):
        e.egf_coeff(9)


def test_series_over_laurent_coefficients():
    """A Series holds rational coefficients only: a Laurent coefficient, or a
    Laurent scalar in any operation, raises TypeError."""
    a = Laurent({1: F(1)})
    with pytest.raises(TypeError):
        Series([a, F(1)])
    with pytest.raises(TypeError):
        Series([F(1), a])
    e = exp_series(F(1), 3)
    for operation in (lambda: e * a, lambda: a * e, lambda: e + a, lambda: e - a):
        with pytest.raises(TypeError):
            operation()
    with pytest.raises(TypeError):
        exp_series(a, 3)


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


def test_pow_needs_scalar_coefficients_and_exponent():
    with pytest.raises(TypeError):
        Series([F(1), Laurent({1: F(1)})]).pow(2)
    with pytest.raises(TypeError):
        Series([F(1), F(1, 2)]).pow(Laurent({1: F(1)}))
    with pytest.raises(TypeError):
        Series([F(1), F(1, 2)]).pow(0.5)
    with pytest.raises(TypeError):
        Series([F(1), Laurent({-1: F(2)})]).pow(F(1, 3))


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


def _assert_is(s, values):
    """``s`` holds exactly ``values``, in the one canonical layout: the lcm
    of their denominators, and each value's numerator over it."""
    den = math.lcm(*(v.denominator for v in values))
    assert (s.nums, s.den) == (tuple(v.numerator * (den // v.denominator) for v in values), den)
    assert s.coeffs == tuple(values)


def _check_against_reference(a, b, c, z):
    """Every Series operation on a and b (and the scalar c, the exponent z)
    against the Fraction-per-coefficient reference of tests/oracles.py."""
    s, t, n = Series(a), Series(b), len(a) - 1
    _assert_is(s, a)
    _assert_is(Series.zero(n), [F(0)] * (n + 1))
    _assert_is(exp_series(c, n), [c**k / math.factorial(k) for k in range(n + 1)])
    _assert_is(s + t, [x + y for x, y in zip(a, b)])
    _assert_is(s - t, [x - y for x, y in zip(a, b)])
    _assert_is(-s, [-x for x in a])
    _assert_is(s + c, [a[0] + c] + a[1:])
    _assert_is(c - s, [c - a[0]] + [-x for x in a[1:]])
    _assert_is(s * c, [x * c for x in a])
    _assert_is(c * s, [c * x for x in a])
    _assert_is(s * t, reference_mul(a, b))
    _assert_is(s.truncate(n // 2), a[: n // 2 + 1])
    if n:
        _assert_is(s.derive(), [i * a[i] for i in range(1, n + 1)])
    assert [s.egf_coeff(k) for k in range(n + 1)] == [
        math.factorial(k) * x for k, x in enumerate(a)
    ]
    assert (s == t) == (a == b)
    zero_head, unit_head = [F(0)] + a[1:], [F(1)] + a[1:]
    _assert_is(Series(zero_head).exp(), reference_exp(zero_head))
    _assert_is(Series(unit_head).log(), reference_log(unit_head))
    _assert_is(Series(unit_head).pow(z), reference_pow(unit_head, z))
    if a[0]:
        _assert_is(s.recip(), reference_recip(a))


@settings(max_examples=150, deadline=None)
@given(coefficient_pair(), COEFF, EXPONENTS)
def test_every_operation_matches_the_fraction_reference(pair, c, z):
    _check_against_reference(*pair, c, z)


def _exp_one_short(self):
    """Series.exp with the sum over i = 1..k stopping at k - 1."""
    a, den = self.nums, self.den
    held, common = [1], 1
    for k in range(1, len(a)):
        acc = sum(i * a[i] * held[k - i] for i in range(1, k))
        common = series._extend(held, common, acc, k * den)
    return Series.over(held, common)


def test_the_reference_catches_a_one_short_exp(monkeypatch):
    """A one-short Series.exp fails no expected-pass record of the audit at
    run_all(42, 2, 8) (see MUTANTS in test_audit.py), so the reference
    comparison is where it is caught."""
    a = [F(1), F(-2, 3), F(1, 2), F(0), F(5, 7)]
    _check_against_reference(a, a[::-1], F(3, 2), F(1, 3))
    monkeypatch.setattr(Series, "exp", _exp_one_short)
    with pytest.raises(AssertionError):
        _check_against_reference(a, a[::-1], F(3, 2), F(1, 3))
