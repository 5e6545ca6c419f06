"""Truncated formal power series in one variable v over an exact ring.

A :class:`Series` stores the ordinary coefficients a_0 .. a_N of
a_0 + a_1 v + ... + a_N v^N and every operation is exact through order N.
Coefficients may be Fraction, Laurent or LogPoly; the only requirement is
that they support exact ring arithmetic with each other and with Fraction.

The exponential-generating-function convention lives in one place only:
:meth:`Series.egf_coeff` returns n! * a_n.  Everything upstream of that call
works with ordinary coefficients so the ring operations stay factorial-free.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class Series:
    """Immutable truncated power series; ``order`` is the largest retained index."""

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

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def monomial(cls, k: int, coeff, order: int) -> "Series":
        """coeff * v^k, truncated at ``order``."""
        if not 0 <= k <= order:
            raise ValueError("monomial degree outside truncation order")
        cs = [Fraction(0)] * (order + 1)
        cs[k] = coeff
        return cls(cs)

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
        """Multiplicative inverse through order N; the constant term must be
        an invertible scalar."""
        a0 = self.coeffs[0]
        if not isinstance(a0, Fraction) or a0 == 0:
            raise ValueError("series reciprocal needs an invertible constant term")
        inv0 = Fraction(1) / a0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-inv0 * acc)
        return Series(out)

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
        """Raise to an exact scalar exponent (a Fraction or an integer) in one
        pass of :func:`extend_pow`.  Requires constant term 1."""
        if not self.coeffs[0] == 1:
            raise ValueError("series pow needs constant term 1")
        return Series(extend_pow(self.coeffs, exponent, [Fraction(1)], self.order))

    def derive(self) -> "Series":
        """Termwise derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot derive a series of order 0")
        return Series((i + 1) * self.coeffs[i + 1] for i in range(self.order))

    def divide_v(self, power: int = 1) -> "Series":
        """Exact division by v**power; the low coefficients must vanish."""
        if power < 0 or power > self.order:
            raise ValueError("bad power for division by v")
        if any(not (c == 0) for c in self.coeffs[:power]):
            raise ValueError("series is not divisible by v to that power")
        return Series(self.coeffs[power:])

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


def extend_pow(a, z, out: list, n: int) -> list:
    """Append to ``out``, the coefficients of A^z held so far, those through
    index n, and return it; A has coefficients ``a`` (at least n + 1 of them)
    with a_0 = 1, and z is an exact scalar.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), read off
    A (A^z)' = z A' A^z: k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j).
    """
    z1 = z + 1
    for k in range(len(out), n + 1):
        terms = ((z1 * j - k) * a[j] * out[k - j] for j in range(1, k + 1))
        out.append(sum(terms, Fraction(0)) / k)
    return out
