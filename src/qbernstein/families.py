"""Special-number and polynomial families, each defined through its generating
function and extracted with the series engine.

The generating functions are the single source of truth here.  Closed forms
(explicit binomial products, recurrences) appear only in the test suite as
independent cross-checks.  The one deliberate exception is :func:`qbernstein`,
whose closed form is itself the coefficient formula of its generating
function; :func:`bernstein_classical` reads it at a classical point.

``prob_qbernstein`` is the ground truth the audit registry compares everything
against: the exponential coefficient of (v X)^r / r! times the MGF raised to
the bracket of 1 - x.  That is C(n, r) X^r beta_(n-r), with
beta_k = k! [v^k] M^X1, and it builds no series: the law's table gives
beta_k as two integers, and the value, like that of
:func:`qbernstein`, is formed as one ``Fraction`` from integer parts, so it
is normalised once.  X and X1 are read from the point (``p.X``, ``p.X1``).
:func:`prob_stirling2` is the partial Bell polynomial B_(n,m) at the law's
moments, which the table holds as integers over one denominator per index
and reads as one ``Fraction``.
:func:`prob_qbernstein_gf` is the one place the whole generating function is
built.  ``prob_qbernstein_laurent`` reaches the same value with x kept
symbolic, through the expansion over the Bell numbers that the binomial
series M^z = sum over m of (z)_m (M - 1)^m / m! gives, run as an integer
Horner in s = 1/t over (b - a)^k D_k for q = a/b.  It is the reference route
that the audit and the tests check the integrals of :mod:`qbernstein.padic`
against; those expand the same sum on their own integer rows (``padic._Row``),
and the two share no code.

The law-dependent families read M, the Bell numbers and M^z from the law's
:func:`~qbernstein.distributions.mgf_table` and cache nothing themselves.
:func:`prob_bernoulli_higher` and :func:`prob_euler` raise M to M^z on their
own with :meth:`~qbernstein.series.Series.pow`, whose Miller kernel is not
the table's, so audit cases comparing them with :func:`prob_qbernstein` keep
two routes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .distributions import Constant, Distribution, mgf_table
from .qcalc import QPoint, _check_q
from .rings import Laurent
from .series import Series, exp_series


def stirling2(n: int, m: int) -> Fraction:
    """Partition-counting numbers of the second kind: m! S(n, m) is the
    exponential coefficient of (e^v - 1)^m, and e^v is the MGF of the law
    Y = 1, so this is :func:`prob_stirling2` at that law."""
    return prob_stirling2(Constant(Fraction(1)), n, m)


def prob_stirling2(d: Distribution, n: int, m: int) -> Fraction:
    """Law-dependent generalization of stirling2: the exponential coefficient
    of (M - 1)^m / m!, where M is the MGF of ``d``.  That is the partial Bell
    polynomial B_(n,m) at the moments of ``d``, read from the law's table as
    one Fraction; 0 for m > n."""
    return mgf_table(d).bell(n, m)


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
    return (base.pow(-order) * exp_series(x, n)).egf_coeff(n)


def euler_poly(n: int, x):
    """Exponential coefficient of 2/(e^v + 1) * e^(x v); e^v is the MGF of
    the law Y = 1, so this is :func:`prob_euler` at that law."""
    return prob_euler(Constant(Fraction(1)), n, x)


def frobenius_euler(n: int, order, x, u: Fraction):
    """Exponential coefficient of ((1 - u)/(e^v - u))^order * e^(x v).

    Implemented by normalizing e^v - u to unit constant term and raising it
    to -order, so the series power precondition holds for every u != 1.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    u = Fraction(u)
    if u == 1:
        raise ValueError("u = 1 makes the generating function degenerate")
    scaled = (exp_series(Fraction(1), n) - u) * (Fraction(1) / (1 - u))
    return (scaled.pow(-order) * exp_series(x, n)).egf_coeff(n)


def prob_bernoulli_higher(d: Distribution, n: int, r: int, z):
    """Exponential coefficient of (v/(M - 1))^r * M^z for the law ``d``.

    At r > 0 the series (M - 1)/v, over its constant term E[Y], has unit
    constant term; its power -r is (E[Y] v/(M - 1))^r, and E[Y]^(-r) is
    reapplied.  At r = 0 this is the coefficient of M^z: M is read only
    through n, and the mean is not read.
    """
    if n < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    if r == 0:
        return mgf_table(d).series(n).pow(z).egf_coeff(n)
    m_series = mgf_table(d).series(n + 1)
    mz = m_series.truncate(n).pow(z)
    mean = m_series.egf_coeff(1)
    if mean == 0:
        raise ValueError("law has mean zero; v/(M - 1) is undefined")
    unit = Series.over(m_series.nums[1:], m_series.den) * (1 / mean)
    return (unit.pow(-r) * mz * mean ** (-r)).egf_coeff(n)


def prob_bernoulli(d: Distribution, n: int, z):
    """Exponential coefficient of (v/(M - 1)) * M^z."""
    return prob_bernoulli_higher(d, n, 1, z)


def prob_euler(d: Distribution, n: int, z):
    """Exponential coefficient of 2/(M + 1) * M^z."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    m_series = mgf_table(d).series(n)
    return (((m_series + 1) * Fraction(1, 2)).pow(-1) * m_series.pow(z)).egf_coeff(n)


def bernstein_classical(r: int, n: int, x: Fraction) -> Fraction:
    """Classical Bernstein basis value binom(n, r) x^r (1 - x)^(n - r): the
    closed form of :func:`qbernstein` at the classical point x."""
    return qbernstein(r, n, QPoint.classical(x))


def qbernstein(r: int, n: int, p: QPoint) -> Fraction:
    """q-deformed Bernstein basis value binom(n, r) X^r X1^(n - r), where X
    and X1 are the brackets of x and of 1 - x at the point.

    Again the closed form is the exponential coefficient of its generating
    function (v X)^r / r! * e^(X1 v); tests assert the series route agrees.
    The value is one ``Fraction`` of binom(n, r) times the numerators of X^r
    and X1^(n - r) over the product of their denominators.
    """
    _check_indices(r, n)
    X, X1, k = p.X, p.X1, n - r
    num = math.comb(n, r) * X.numerator**r * X1.numerator**k
    return Fraction(num, X.denominator**r * X1.denominator**k)


def prob_qbernstein_gf(d: Distribution, r: int, p: QPoint, order: int) -> Series:
    """The generating function (v X)^r / r! * M^X1 through ``order``, with X,
    X1 the brackets of x and 1 - x at ``p``; the zero series for r < 0.

    Multiplying by the monomial shifts M^X1 up by r, so only its coefficients
    through order - r are needed: the numerators of the table's M^X1 times
    those of X^r, with r zeros in front, over its denominator times that of
    X^r / r!, normalised once."""
    if r < 0:
        return Series.zero(order)
    if r > order:
        raise ValueError("monomial degree outside truncation order")
    X, tail = p.X, mgf_table(d).power(p.X1, order - r)
    nums = [0] * r + [X.numerator**r * c for c in tail.nums]
    return Series.over(nums, tail.den * X.denominator**r * math.factorial(r))


def prob_qbernstein(d: Distribution, r: int, n: int, p: QPoint) -> Fraction:
    """Ground truth: the exponential coefficient at index n of
    (v X)^r / r! * M^X1, with X, X1 the brackets of x and 1 - x at ``p``;
    that is C(n, r) X^r beta_(n-r), with beta_k = k! [v^k] M^X1 read from
    the law's table as two integers."""
    _check_indices(r, n)
    X, (tail, scale) = p.X, mgf_table(d).power_parts(p.X1, n - r)
    num = math.comb(n, r) * X.numerator**r * tail
    return Fraction(num, X.denominator**r * scale)


def prob_qbernstein_laurent(d: Distribution, r: int, n: int, q: Fraction) -> Laurent:
    """The same value as :func:`prob_qbernstein` but with the x-dependence
    kept as a Laurent polynomial in t; the reference route for the integrals
    of :mod:`qbernstein.padic`, which do not call it.

    With k = n - r and X1 the bracket of 1 - x written in t, the value is
    binom(n, r) X^r times the sum over m <= k of (X1)_m prob_stirling2(d, k, m),
    the exponential coefficient of M^X1 by the binomial series.  For q = a/b
    and s = 1/t, X1 - m = (b - m (b - a) - a s)/(b - a), so Horner's rule runs
    in integers over (b - a)^k D_k on the Bell row ``bell_parts(k)``; times
    X^r = (-b)^r (t - 1)^r/(b - a)^r, each t-exponent forms one ``Fraction``.
    Substituting any t with the same q reproduces the scalar value exactly.
    """
    _check_indices(r, n)
    q = _check_q(q)
    a, b, k = q.numerator, q.denominator, n - r
    parts, dk = mgf_table(d).bell_parts(k)
    poly, scale = [parts[k]], 1  # coefficients of s^0 .., over (b - a)^(k - m) D_k
    for m in range(k - 1, -1, -1):
        c, scale = b - m * (b - a), scale * (b - a)
        poly = [c * x - a * y for x, y in zip(poly + [0], [0] + poly)]
        poly[0] += parts[m] * scale
    for _ in range(r):  # (t - 1)^r = t^r (1 - s)^r
        poly = [x - y for x, y in zip(poly + [0], [0] + poly)]
    num, den = math.comb(n, r) * (-b) ** r, (b - a) ** n * dk
    return Laurent({r - i: Fraction(num * x, den) for i, x in enumerate(poly)})


def _check_indices(r: int, n: int):
    if r < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if r > n:
        raise ValueError(f"lower index {r} exceeds upper index {n}")
