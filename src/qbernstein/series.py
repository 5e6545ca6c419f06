"""Truncated formal power series in one variable v over an exact ring.

A :class:`Series` stores the ordinary coefficients a_0 .. a_N of
a_0 + a_1 v + ... + a_N v^N and every operation is exact through order N.
Coefficients may be Fraction, Laurent or LogPoly; the only requirement is
that they support exact ring arithmetic with each other and with Fraction.
:meth:`Series.pow` and :meth:`Series.recip` are the exceptions: they need
Fraction or int coefficients and exponent, because :class:`MillerPower` runs
Miller's recurrence on integers, and the reciprocal is that recurrence at
exponent -1.  With D the common denominator of a_0 .. a_n and z = zn/zd,
the coefficient b_k of A^z is an integer B_k over (zd D)^k k!, and B_k is one
integer sum of the earlier B_i.  A :class:`MillerPower` holds D, the
numerators of a_0 .. a_n over D and the B_i between growths: when a longer
prefix of A brings a larger D', it multiplies the numerators by D'/D and each
B_i by (D'/D)^i, then appends the new terms, so a growth never re-derives
what it holds.  Every other operation is plain Fraction arithmetic.

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
        """Raise to an exact scalar exponent (a Fraction or an integer): a
        fresh :class:`MillerPower` grown once.  Requires constant term 1 and
        scalar coefficients; a Laurent or LogPoly coefficient or exponent
        raises TypeError."""
        if not self.coeffs[0] == 1:
            raise ValueError("series pow needs constant term 1")
        return Series(MillerPower(exponent).grow(self.coeffs, self.order))

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


def append_numerators(den: int, nums: list, new) -> tuple[int, int]:
    """Append to ``nums``, integer numerators over ``den``, those of the
    Fractions ``new``, over D', the lcm of ``den`` and their denominators,
    multiplying the held ones by D'/D first.  Returns (D', D'/D)."""
    grown = math.lcm(den, *(c.denominator for c in new))
    ratio = grown // den
    if ratio != 1:
        nums[:] = [c * ratio for c in nums]
    nums.extend(c.numerator * (grown // c.denominator) for c in new)
    return grown, ratio


class MillerPower:
    """A^z for one exact scalar exponent z (a Fraction or an int, else
    TypeError), held as the integer state of J.C.P. Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7) so that a growth appends only the new
    coefficients.

    The recurrence, read off A (A^z)' = z A' A^z, is
    k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j) with a_0 = 1.  With
    D the common denominator of the a_j read so far, A_j = D a_j, z = zn/zd and
    S = zd D, b_k = B_k / (S^k k!) where B_k = sum over j = 1..k of
    ((zn + zd) j - k zd) A_j B_(k-j) S^(j-1) (k-1)!/(k-j)!, an integer sum with
    no gcd in it; each new b_k is normalised once into ``coeffs``.  The state
    holds D, the A_j, the B_i and the weight S^k k! of the last B_k; when new
    coefficients bring a larger D', the A_j are multiplied by D'/D
    (:func:`append_numerators`), each B_i by (D'/D)^i and the weight by
    (D'/D)^k."""

    __slots__ = ("z", "coeffs", "_den", "_nums", "_held", "_weight")

    def __init__(self, z):
        if not isinstance(z, (int, Fraction)):
            raise TypeError("Miller's recurrence needs a Fraction or int exponent")
        self.z = z
        self.coeffs = [Fraction(1)]  # b_0 .. b_k
        self._den, self._nums = 1, [1]  # D and the A_j
        self._held, self._weight = [1], 1  # the B_i and S^k k!

    def grow(self, a, n: int) -> list:
        """Append b_(k+1) .. b_n to ``coeffs`` and return it, reading the
        coefficients a_0 = 1 .. a_n of A from ``a``; every call must hand in
        the same series A, to any length.  A coefficient that is not a
        Fraction or an int raises TypeError and leaves the state as it was."""
        held = self._held
        if len(held) > n:
            return self.coeffs
        new = a[len(held) : n + 1]
        if not all(isinstance(c, (int, Fraction)) for c in new):
            raise TypeError("Miller's recurrence needs Fraction or int coefficients")
        den, ratio = append_numerators(self._den, self._nums, new)
        if ratio != 1:
            factor = 1
            for i in range(1, len(held)):
                factor *= ratio
                held[i] *= factor
            self._weight *= factor
            self._den = den
        nums, zn, zd = self._nums, self.z.numerator, self.z.denominator
        scale, slope, weight, out = zd * den, zn + zd, self._weight, self.coeffs
        for k in range(len(held), n + 1):
            acc = 0
            for j in range(k, 0, -1):  # Horner in S (k - j), from the top term down
                acc *= scale * (k - j)
                if nums[j]:
                    acc += (slope * j - k * zd) * nums[j] * held[k - j]
            held.append(acc)
            weight *= scale * k
            out.append(Fraction(acc, weight))
        self._weight = weight
        return out
