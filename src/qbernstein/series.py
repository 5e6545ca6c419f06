"""Truncated formal power series in one variable v over the rationals.

A :class:`Series` holds the coefficients a_0 .. a_N of
a_0 + a_1 v + ... + a_N v^N as integer numerators ``nums`` over one positive
denominator ``den``, the layout of FLINT's ``fmpq_poly`` (Hart, FLINT: Fast
Library for Number Theory), always in canonical form: gcd(den, *nums) = 1,
so equal series have equal layouts.  Every operation is exact through order
N and runs on integers; the ring operations normalise once per result, not
once per coefficient.  Coefficients and scalars pass the one exactness gate,
:func:`~qbernstein.rings._frac`, and orders and indices the one index gate,
:func:`~qbernstein.rings._index`.  ``coeffs`` gives the coefficients as Fractions.

:meth:`Series.exp`, :meth:`Series.log` and :meth:`Series.pow` run their
recurrences on the numerators A_i over D = ``den`` and build the result in
this layout as they go: the coefficients b_0 .. b_(k-1) found so far are
integers over their least common denominator Q, b_k is one integer dot
product of them over k D Q (k zd D Q for the power z = zn/zd), and
:func:`_extend` appends it with one gcd against that small divisor, growing
Q (and scaling the held integers) only by what b_k needs.  So the integers
stay the size of the result's numerators times the A_i, and the cost follows
the size of the result, not that of D^k k!.  The reciprocal is the power -1.
A power is computed whole and nothing is held between calls; the tables of a
law's M^z live in :class:`~qbernstein.distributions.MgfTable`, which runs its
own kernel and its own read-out to this layout.

A :class:`Series` holds ordinary coefficients, so the ring operations stay
factorial-free; :meth:`Series.egf_coeff` returns the exponential coefficient
n! * a_n.  It is not the only place that applies n!: the law tables
(:class:`~qbernstein.distributions.MgfTable`) hold the moments, the Bell
rows and M^z in exponential form (N_k, A_m(n), Beta_k), and their series
read-out (``distributions._ordinary``), ``families.prob_qbernstein`` and the
readers of the Bell rows move between the two forms themselves.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .rings import _frac, _index, _Value


def _scalar(c) -> tuple[int, int]:
    return _frac(c).as_integer_ratio()


class Series(_Value):
    """Truncated power series: ``nums`` over ``den``; ``order`` is the
    largest retained index.  Frozen by :class:`~qbernstein.rings._Value`."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable):
        parts = [_scalar(c) for c in coeffs]
        if not parts:
            raise ValueError("a series needs at least the constant coefficient")
        den = math.lcm(*(q for _, q in parts))
        return cls.over([p * (den // q) for p, q in parts], den)

    @classmethod
    def over(cls, nums, den: int) -> "Series":
        """The series with coefficients nums[k] / den, for a positive
        ``den``, put in canonical form."""
        g = math.gcd(den, *reversed(nums))  # the top term most often ends it
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        s = object.__new__(cls)
        object.__setattr__(s, "nums", tuple(nums))
        object.__setattr__(s, "den", den)
        return s

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """a_0 .. a_N as Fractions, formed anew on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.over([0] * (_index(order) + 1), 1)

    def truncate(self, order: int) -> "Series":
        if _index(order) > self.order:
            raise ValueError("cannot truncate upward")
        return self if order == self.order else Series.over(self.nums[: order + 1], self.den)

    def _check(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series((other,) + (0,) * self.order)
        self._check(other)
        den = math.lcm(self.den, other.den)
        u, w = den // self.den, den // other.den
        return Series.over([a * u + b * w for a, b in zip(self.nums, other.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return Series.over([-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            p, q = _scalar(other)
            return Series.over([a * p for a in self.nums], self.den * q)
        self._check(other)
        a, rb, n = self.nums, other.nums[::-1], self.order
        out = [_dot(a[: k + 1], rb[n - k :]) for k in range(n + 1)]
        return Series.over(out, self.den * other.den)

    __rmul__ = __mul__

    def recip(self) -> "Series":
        """Multiplicative inverse through order N: the series over its
        constant term a_0, raised to -1 by :meth:`pow`, over a_0 again.  a_0
        must be nonzero."""
        if not self.nums[0]:
            raise ValueError("series reciprocal needs an invertible constant term")
        inverse = Fraction(self.den, self.nums[0])
        return (self * inverse).pow(-1) * inverse

    def exp(self) -> "Series":
        """Series exponential; requires a vanishing constant term.  E =
        exp(A) solves E' = A' E, so k e_k = sum over i = 1..k of i a_i
        e_(k-i), and with a_i = A_i / D and e_j = E_j / Q, e_k is
        sum over i of i A_i E_(k-i) over k D Q."""
        a, den = self.nums, self.den
        if a[0]:
            raise ValueError("series exp needs constant term 0")
        slopes = [i * x for i, x in enumerate(a)]
        held, common = [1], 1
        for k in range(1, len(a)):
            common = _extend(held, common, _dot(slopes[1 : k + 1], held[::-1]), k * den)
        return Series.over(held, common)

    def log(self) -> "Series":
        """Series logarithm; requires constant term 1.  L = log(A) solves
        A L' = A', so k l_k = k a_k - sum over 0 < i < k of i l_i a_(k-i), and
        with a_j = A_j / D and l_i = L_i / Q, l_k is k A_k Q - sum over i of
        i L_i A_(k-i) over k D Q, where i A_(k-i) = k A_j - j A_j at j = k - i."""
        a, den = self.nums, self.den
        if a[0] != den:
            raise ValueError("series log needs constant term 1")
        slopes = [j * x for j, x in enumerate(a)]
        held, common = [0], 1
        for k in range(1, len(a)):
            tail = held[1:k]
            acc = k * (a[k] * common - _dot(tail, a[k - 1 : 0 : -1]))
            acc += _dot(tail, slopes[k - 1 : 0 : -1])
            common = _extend(held, common, acc, k * den)
        return Series.over(held, common)

    def pow(self, exponent) -> "Series":
        """Raise to an exact scalar exponent (a Fraction or an integer) by
        :func:`_miller_power`.  Requires constant term 1; any other exponent
        raises TypeError."""
        if self.nums[0] != self.den:
            raise ValueError("series pow needs constant term 1")
        return _miller_power(self.nums, self.den, _frac(exponent))

    def derive(self) -> "Series":
        """Termwise derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot derive a series of order 0")
        return Series.over([i * x for i, x in enumerate(self.nums) if i], self.den)

    def egf_coeff(self, n: int) -> Fraction:
        """The exponential-convention coefficient n! * a_n."""
        if _index(n) > self.order:
            raise ValueError(
                f"index {n} exceeds truncation order {self.order}"
            )
        return Fraction(math.factorial(n) * self.nums[n], self.den)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def exp_series(rate, order: int) -> Series:
    """The truncated exponential of rate * v, i.e. coefficients rate^n / n!:
    each is the one before times rate / n."""
    p, q = _scalar(rate)
    held, common = [1], 1
    for n in range(1, _index(order) + 1):
        common = _extend(held, common, p * held[-1], q * n)
    return Series.over(held, common)


def _dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


def _extend(held: list, common: int, num: int, den: int) -> int:
    """Append num / (den common) to the numerators ``held`` over ``common``,
    for a positive ``den``, and return their new common denominator: the least
    multiple of ``common`` that clears the new value, so ``held`` stays in
    canonical form.  That is common times r for r = den / gcd(den, num), and
    every held numerator is scaled by r."""
    g = math.gcd(den, num)
    if g != den:
        r = den // g
        held[:] = [h * r for h in held]
        common *= r
    held.append(num // g)
    return common


def _miller_power(nums, den: int, z) -> Series:
    """A^z, for A = a_0 + .. + a_n v^n with a_0 = 1 and a_j = nums[j] / den,
    by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) on integers.

    The recurrence, read off A (A^z)' = z A' A^z, is
    k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j).  With A_j =
    nums[j], z = zn/zd and b_i = B_i / Q over the common denominator Q of
    b_0 .. b_(k-1), b_k is the integer sum over j of ((zn + zd) j - k zd) A_j
    B_(k-j) over k zd den Q, appended by :func:`_extend`.  This ordinary-form
    kernel is :meth:`Series.pow`'s alone: the M^z of
    :class:`~qbernstein.distributions.MgfTable` runs its own, in exponential
    form over per-index denominators, and the two share no code."""
    zn, zd = z.numerator, z.denominator
    slopes = [j * x for j, x in enumerate(nums)]
    held, common = [1], 1
    for k in range(1, len(nums)):
        rev = held[::-1]
        acc = (zn + zd) * _dot(slopes[1 : k + 1], rev) - k * zd * _dot(nums[1 : k + 1], rev)
        common = _extend(held, common, acc, k * zd * den)
    return Series.over(held, common)
