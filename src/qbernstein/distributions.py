"""Moment providers: each supported law yields exact moments and its moment
generating function as a truncated :class:`~qbernstein.series.Series`.

Every MGF here has constant term exactly 1, which is the precondition for
raising it to arbitrary powers downstream.  Moments are read off the MGF as
exponential coefficients, so there is a single source of truth per law; the
closed-form moment routes live in the test suite as independent oracles.

:func:`mgf_table` is the package's one cache: per law, an :class:`MgfTable`
holding M, (M - 1)^m and M^z at the largest order asked for so far.  A series
truncated at order N is a prefix of the same series at any higher order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import Series, exp_series


class Distribution:
    """Base class; concrete laws implement :meth:`mgf_series`."""

    name = "distribution"

    def mgf_series(self, order: int) -> Series:
        raise NotImplementedError

    def moment(self, n: int) -> Fraction:
        """E[Y^n], extracted from the MGF."""
        if n < 0:
            raise ValueError("moment index must be nonnegative")
        return mgf_table(self).series(n).egf_coeff(n)

    def mean(self) -> Fraction:
        return self.moment(1)

    def param_string(self) -> str:
        return ""


def _check_p1(p1: Fraction) -> Fraction:
    p1 = Fraction(p1)
    if not 0 < p1 <= 1:
        raise ValueError("success probability must lie in (0, 1]")
    return p1


def _fr(x) -> Fraction:
    return Fraction(x)


@dataclass(frozen=True)
class Poisson(Distribution):
    alpha: Fraction

    name = "poisson"

    def __post_init__(self):
        a = _fr(self.alpha)
        if a <= 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "alpha", a)

    def mgf_series(self, order: int) -> Series:
        inner = exp_series(Fraction(1), order) - 1
        return (inner * self.alpha).exp()

    def param_string(self) -> str:
        return f"alpha={self.alpha}"


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p1: Fraction

    name = "bernoulli"

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def mgf_series(self, order: int) -> Series:
        return exp_series(Fraction(1), order) * self.p1 + (1 - self.p1)

    def param_string(self) -> str:
        return f"p1={self.p1}"


@dataclass(frozen=True)
class Binomial(Distribution):
    trials: int
    p1: Fraction

    name = "binomial"

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trial count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def mgf_series(self, order: int) -> Series:
        single = exp_series(Fraction(1), order) * self.p1 + (1 - self.p1)
        return single.pow(self.trials)

    def param_string(self) -> str:
        return f"trials={self.trials};p1={self.p1}"


@dataclass(frozen=True)
class Geometric(Distribution):
    """Number of trials up to and including the first success; support 1, 2, ..."""

    p1: Fraction

    name = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def mgf_series(self, order: int) -> Series:
        e = exp_series(Fraction(1), order)
        return (e * self.p1) * (Series.one(order) - e * (1 - self.p1)).recip()

    def param_string(self) -> str:
        return f"p1={self.p1}"


@dataclass(frozen=True)
class NegBinomial(Distribution):
    """Trials needed for ``successes`` successes; support a, a+1, ..."""

    successes: int
    p1: Fraction

    name = "negbinomial"

    def __post_init__(self):
        if not isinstance(self.successes, int) or self.successes < 1:
            raise ValueError("success count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def mgf_series(self, order: int) -> Series:
        e = exp_series(Fraction(1), order)
        single = (e * self.p1) * (Series.one(order) - e * (1 - self.p1)).recip()
        return single.pow(self.successes)

    def param_string(self) -> str:
        return f"successes={self.successes};p1={self.p1}"


@dataclass(frozen=True)
class Uniform01(Distribution):
    name = "uniform01"

    def mgf_series(self, order: int) -> Series:
        return Series(
            Fraction(1, math.factorial(n + 1)) for n in range(order + 1)
        )

    def param_string(self) -> str:
        return ""


@dataclass(frozen=True)
class Constant(Distribution):
    """The degenerate law Y = c with probability one."""

    value: Fraction

    name = "constant"

    def __post_init__(self):
        object.__setattr__(self, "value", _fr(self.value))

    def mgf_series(self, order: int) -> Series:
        return exp_series(self.value, order)

    def param_string(self) -> str:
        return f"value={self.value}"


@dataclass(frozen=True)
class CustomMoments(Distribution):
    """An arbitrary exact moment sequence; the first entry must be 1.

    Useful for probing where an identity genuinely needs a degenerate law:
    any sequence at all can be fed through the same machinery.
    """

    moments: tuple

    name = "custom"

    def __post_init__(self):
        ms = tuple(_fr(m) for m in self.moments)
        if not ms or ms[0] != 1:
            raise ValueError("moment sequence must start with 1")
        object.__setattr__(self, "moments", ms)

    def mgf_series(self, order: int) -> Series:
        if order >= len(self.moments):
            raise ValueError(
                f"only {len(self.moments)} moments provided, order {order} requested"
            )
        return Series(
            self.moments[n] * Fraction(1, math.factorial(n))
            for n in range(order + 1)
        )

    def param_string(self) -> str:
        return "moments=" + ",".join(str(m) for m in self.moments)


class MgfTable:
    """M, the powers (M - 1)^m and M^z of one law, each at the largest order
    asked for so far; a lower order is read from the prefix.  Each query
    builds before it stores, so a law short of the order asked for (a
    :class:`CustomMoments` law) raises and leaves the table as it was."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self._mgf = dist.mgf_series(0)
        self._minus_one = [[Fraction(1)]]  # coefficients of (M - 1)^m, m = 0, 1, ...
        self._powers = {}  # z -> M^z, at most 16 exponents

    def series(self, order: int) -> Series:
        """M through ``order``."""
        if self._mgf.order < order:
            self._mgf = self.dist.mgf_series(order)
        return self._mgf.truncate(order)

    def minus_one_coeff(self, m: int, n: int) -> Fraction:
        """The coefficient of v^n in (M - 1)^m, for 0 <= m <= n.  Growing to
        order n appends to each held power its new coefficients only;
        (M - 1)^j starts at v^j since M has constant term 1."""
        powers = self._minus_one
        if len(powers[-1]) <= n:
            b = self.series(n).coeffs
            powers[0].extend([Fraction(0)] * (n + 1 - len(powers[0])))
            for j in range(1, n + 1):
                if j == len(powers):
                    powers.append([])
                prev, power = powers[j - 1], powers[j]
                for k in range(len(power), n + 1):
                    terms = (prev[i] * b[k - i] for i in range(j - 1, k))
                    power.append(sum(terms, Fraction(0)))
        return powers[m][n]

    def power(self, z, order: int) -> Series:
        """M^z through ``order``, rebuilt only when asked above its order."""
        held = self._powers.get(z)
        if held is None or held.order < order:
            held = self.series(order).pow(z)
            if z not in self._powers and len(self._powers) == 16:
                del self._powers[next(iter(self._powers))]
            self._powers[z] = held
        return held.truncate(order)


@lru_cache(maxsize=64)
def mgf_table(dist: Distribution) -> MgfTable:
    """The table of ``dist``, shared by equal laws."""
    return MgfTable(dist)
