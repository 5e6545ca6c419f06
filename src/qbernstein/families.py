"""Special-number and polynomial families, each defined through its generating
function and extracted with the series engine.

The generating functions are the single source of truth here.  Closed forms
(explicit binomial products, recurrences) appear only in the test suite as
independent cross-checks, with two deliberate exceptions noted on
:func:`bernstein_classical` and :func:`qbernstein`, whose closed forms are
themselves the coefficient formulas of their generating functions.

``prob_qbernstein`` is the ground truth the audit registry compares everything
against: the exponential coefficient of (v X)^r / r! times the MGF raised to
the bracket of 1 - x.  :func:`prob_qbernstein_gf` is the one place that
generating function is built.  ``prob_qbernstein_laurent`` reaches the same
value with x kept symbolic, through the expansion over ``prob_stirling2``
that the binomial series M^z = sum over m of (z)_m (M - 1)^m / m! gives.

The law-dependent families read M, (M - 1)^m and M^z from the law's
:func:`~qbernstein.distributions.mgf_table` and cache nothing themselves.
:func:`prob_bernoulli_higher` and :func:`prob_euler` raise M to M^z on their
own, so audit cases comparing them with :func:`prob_qbernstein` keep two routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .distributions import Constant, Distribution, mgf_table
from .qcalc import QPoint, bracket, bracket_conjugates, bracket_in_t, one_minus_conjugate_in_t
from .rings import Laurent
from .series import Series, exp_series


def stirling2(n: int, m: int) -> Fraction:
    """Partition-counting numbers of the second kind: m! S(n, m) is the
    exponential coefficient of (e^v - 1)^m, and e^v is the MGF of the law
    Y = 1, so this is :func:`prob_stirling2` at that law."""
    return prob_stirling2(Constant(Fraction(1)), n, m)


def prob_stirling2(d: Distribution, n: int, m: int) -> Fraction:
    """Law-dependent generalization of stirling2: the exponential coefficient
    of (M - 1)^m / m! where M is the MGF of ``d``."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if m > n:
        return Fraction(0)
    return mgf_table(d).minus_one_coeff(m, n) * math.factorial(n) / math.factorial(m)


def bell_poly(n: int, x):
    """Exponential coefficient of exp(x (e^v - 1))."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    inner = (exp_series(Fraction(1), n) - 1) * x
    return inner.exp().egf_coeff(n)


def higher_bernoulli(n: int, order, x):
    """Exponential coefficient of (v/(e^v - 1))^order * e^(x v).

    ``order`` and ``x`` may be any exact scalars (the order enters through a
    series power, the argument through an exponential factor).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    base = Series(Fraction(1, math.factorial(k + 1)) for k in range(n + 1))
    return (base.recip().pow(order) * exp_series(x, n)).egf_coeff(n)


def euler_poly(n: int, x):
    """Exponential coefficient of 2/(e^v + 1) * e^(x v); e^v is the MGF of
    the law Y = 1, so this is :func:`prob_euler` at that law."""
    return prob_euler(Constant(Fraction(1)), n, x)


def frobenius_euler(n: int, order, x, u: Fraction):
    """Exponential coefficient of ((1 - u)/(e^v - u))^order * e^(x v).

    Implemented by normalizing e^v - u to unit constant term before the
    power, so the series power precondition holds for every u != 1.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 makes the generating function degenerate")
    scaled = (exp_series(Fraction(1), n) - u) * (Fraction(1) / (1 - u))
    return (scaled.recip().pow(order) * exp_series(x, n)).egf_coeff(n)


def prob_bernoulli_higher(d: Distribution, n: int, r: int, z):
    """Exponential coefficient of (v/(M - 1))^r * M^z for the law ``d``.

    The series v/(M - 1) has constant term 1/E[Y]; that scalar is factored
    out so the powered series has unit constant term, then reapplied.
    """
    if n < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    m_series = mgf_table(d).series(n + 1)
    core = Series.one(n)
    scale = Fraction(1)
    if r > 0:
        mean = m_series.coeffs[1]
        if mean == 0:
            raise ValueError("law has mean zero; v/(M - 1) is undefined")
        unit = (m_series - 1).divide_v(1) * (Fraction(1) / mean)
        core = unit.recip().pow(r)
        scale = mean ** (-r)
    mz = m_series.truncate(n).pow(z)
    return (core * mz * scale).egf_coeff(n)


def prob_bernoulli(d: Distribution, n: int, z):
    """Exponential coefficient of (v/(M - 1)) * M^z."""
    return prob_bernoulli_higher(d, n, 1, z)


def prob_euler(d: Distribution, n: int, z):
    """Exponential coefficient of 2/(M + 1) * M^z."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    m_series = mgf_table(d).series(n)
    return ((m_series + 1).recip() * 2 * m_series.pow(z)).egf_coeff(n)


def bernstein_classical(r: int, n: int, x: Fraction) -> Fraction:
    """Classical Bernstein basis value binom(n, r) x^r (1 - x)^(n - r).

    This closed form is exactly the exponential coefficient of
    (v x)^r / r! * e^((1 - x) v); the series route is asserted equal in tests.
    """
    _check_indices(r, n)
    x = Fraction(x)
    return math.comb(n, r) * x**r * (1 - x) ** (n - r)


def qbernstein(r: int, n: int, p: QPoint) -> Fraction:
    """q-deformed Bernstein basis value binom(n, r) X^r X1^(n - r), where X
    and X1 are the brackets of x and of 1 - x at the point.

    Again the closed form is the exponential coefficient of its generating
    function (v X)^r / r! * e^(X1 v); tests assert the series route agrees.
    In classical mode this is :func:`bernstein_classical`.
    """
    _check_indices(r, n)
    x_val = bracket(p)
    one_minus = bracket_conjugates(p)[1]
    return math.comb(n, r) * x_val**r * one_minus ** (n - r)


def prob_qbernstein_gf(d: Distribution, r: int, p: QPoint, order: int) -> Series:
    """The generating function (v X)^r / r! * M^X1 through ``order``, with X,
    X1 the brackets of x and 1 - x at ``p``; the zero series for r < 0.

    Multiplying by the monomial shifts M^X1 up by r, so only its coefficients
    through order - r are needed."""
    if r < 0:
        return Series.zero(order)
    if r > order:
        raise ValueError("monomial degree outside truncation order")
    front = bracket(p) ** r * Fraction(1, math.factorial(r))
    tail = mgf_table(d).power(bracket_conjugates(p)[1], order - r)
    return Series([Fraction(0)] * r + [front * c for c in tail.coeffs])


def prob_qbernstein(d: Distribution, r: int, n: int, p: QPoint) -> Fraction:
    """Ground truth: the exponential coefficient at index n of
    (v X)^r / r! * M^X1, with X, X1 the brackets of x and 1 - x at ``p``."""
    _check_indices(r, n)
    return prob_qbernstein_gf(d, r, p, n).egf_coeff(n)


def prob_qbernstein_laurent(d: Distribution, r: int, n: int, q: Fraction) -> Laurent:
    """The same value as :func:`prob_qbernstein` but with the x-dependence
    kept as a Laurent polynomial in t.

    With k = n - r and X1 the bracket of 1 - x written in t, the value is
    binom(n, r) X^r times the sum over m <= k of (X1)_m prob_stirling2(d, k, m),
    the exponential coefficient of M^X1 by the binomial series.  The sum is
    evaluated by Horner's rule in the falling-factorial basis.  Substituting
    any t with the same q reproduces the scalar value exactly.
    """
    _check_indices(r, n)
    k = n - r
    one_minus = one_minus_conjugate_in_t(q)
    total = Laurent()
    for m in range(k, -1, -1):
        total = total * (one_minus - m) + prob_stirling2(d, k, m)
    return math.comb(n, r) * bracket_in_t(q) ** r * total


def _check_indices(r: int, n: int):
    if r < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if r > n:
        raise ValueError(f"lower index {r} exceeds upper index {n}")
