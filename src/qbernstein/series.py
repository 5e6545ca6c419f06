"""Truncated formal power series in one variable v over an exact ring.

A :class:`Series` stores the ordinary coefficients a_0 .. a_N of
a_0 + a_1 v + ... + a_N v^N and every operation is exact through order N.
Coefficients may be Fraction, Laurent or LogPoly; the only requirement is
that they support exact ring arithmetic with each other and with Fraction.
:meth:`Series.pow` and :meth:`Series.recip` are the exceptions: they need
Fraction or int coefficients and exponent, because :func:`_miller_power` runs
Miller's recurrence on integers, and the reciprocal is that recurrence at
exponent -1.  With D the lcm of the denominators of a_0 .. a_n and
z = zn/zd, the coefficient b_k of A^z is an integer B_k over (zd D)^k k!,
and B_k is one integer sum of the earlier B_i.  A power is computed whole,
from one D, and nothing is held between calls; the tables of a law's M^z
live in :class:`~qbernstein.distributions.MgfTable`, which runs its own
kernel.  Every other operation is plain Fraction arithmetic.

The exponential-generating-function convention lives in one place only:
:meth:`Series.egf_coeff` returns n! * a_n.  Everything upstream of that call
works with ordinary coefficients so the ring operations stay factorial-free.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class Series:
    """Immutable truncated power series; ``order`` is the largest retained
    index.  :meth:`pow` and :meth:`recip` need scalar (Fraction or int)
    coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([Fraction(0)] * (order + 1))

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return Series(self.coeffs[: order + 1])

    def _check(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, Series):
            self._check(other)
            return Series(a + b for a, b in zip(self.coeffs, other.coeffs))
        return Series((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series(-a for a in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check(other)
            return Series(a - b for a, b in zip(self.coeffs, other.coeffs))
        return Series((self.coeffs[0] - other,) + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series(a * other for a in self.coeffs)
        self._check(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = Fraction(0)
            for i in range(k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return Series(out)

    __rmul__ = __mul__

    def recip(self) -> "Series":
        """Multiplicative inverse through order N: the series over its
        constant term a_0, raised to -1 by :meth:`pow`, over a_0 again.  a_0
        must be a nonzero Fraction and the coefficients scalars."""
        a0 = self.coeffs[0]
        if not isinstance(a0, Fraction) or a0 == 0:
            raise ValueError("series reciprocal needs an invertible constant term")
        return (self * (1 / a0)).pow(-1) * (1 / a0)

    def exp(self) -> "Series":
        """Series exponential; requires a vanishing constant term."""
        if not self.coeffs[0] == 0:
            raise ValueError("series exp needs constant term 0")
        out = [Fraction(1)]
        for k in range(self.order):
            acc = Fraction(0)
            for i in range(k + 1):
                acc = acc + (i + 1) * self.coeffs[i + 1] * out[k - i]
            out.append(Fraction(1, k + 1) * acc)
        return Series(out)

    def log(self) -> "Series":
        """Series logarithm; requires constant term 1."""
        if not self.coeffs[0] == 1:
            raise ValueError("series log needs constant term 1")
        out = [Fraction(0)]
        for k in range(self.order):
            acc = (k + 1) * self.coeffs[k + 1]
            for i in range(k):
                acc = acc - (i + 1) * out[i + 1] * self.coeffs[k - i]
            out.append(Fraction(1, k + 1) * acc)
        return Series(out)

    def pow(self, exponent) -> "Series":
        """Raise to an exact scalar exponent (a Fraction or an integer) by
        :func:`_miller_power`.  Requires constant term 1 and scalar
        coefficients; a Laurent or LogPoly coefficient or exponent raises
        TypeError."""
        if not self.coeffs[0] == 1:
            raise ValueError("series pow needs constant term 1")
        if not all(isinstance(c, (int, Fraction)) for c in (exponent, *self.coeffs)):
            raise TypeError("Miller's recurrence needs Fraction or int terms and exponent")
        return Series(_miller_power(self.coeffs, exponent))

    def derive(self) -> "Series":
        """Termwise derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot derive a series of order 0")
        return Series((i + 1) * self.coeffs[i + 1] for i in range(self.order))

    def egf_coeff(self, n: int):
        """The exponential-convention coefficient n! * a_n."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self.order:
            raise ValueError(
                f"index {n} exceeds truncation order {self.order}"
            )
        return math.factorial(n) * self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def exp_series(rate, order: int) -> Series:
    """The truncated exponential of rate * v, i.e. coefficients rate^n / n!."""
    return Series(rate**n * Fraction(1, math.factorial(n)) for n in range(order + 1))


def _miller_power(a, z) -> list:
    """The coefficients b_0 .. b_n of A^z, for A = a_0 + .. + a_n v^n with
    a_0 = 1 and Fraction coefficients, by J.C.P. Miller's recurrence (Knuth,
    TAOCP vol. 2, 4.7) on integers.

    The recurrence, read off A (A^z)' = z A' A^z, is
    k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j).  With D the lcm
    of the denominators of a_0 .. a_n, A_j = D a_j, z = zn/zd and S = zd D,
    b_k = B_k / (S^k k!) where B_k = sum over j = 1..k of
    ((zn + zd) j - k zd) A_j B_(k-j) S^(j-1) (k-1)!/(k-j)!, an integer sum
    with no gcd in it; each b_k is normalised once.  This ordinary-form
    kernel is :meth:`Series.pow`'s alone: the M^z of
    :class:`~qbernstein.distributions.MgfTable` runs its own, in exponential
    form over the law's base, and the two share no code."""
    den = math.lcm(*(c.denominator for c in a))
    nums = [c.numerator * (den // c.denominator) for c in a]
    zn, zd = z.numerator, z.denominator
    scale, slope = zd * den, zn + zd
    held, weight, out = [1], 1, [Fraction(1)]
    for k in range(1, len(a)):
        acc = 0
        for j in range(k, 0, -1):  # Horner in S (k - j), from the top term down
            acc *= scale * (k - j)
            if nums[j]:
                acc += (slope * j - k * zd) * nums[j] * held[k - j]
        held.append(acc)
        weight *= scale * k
        out.append(Fraction(acc, weight))
    return out
