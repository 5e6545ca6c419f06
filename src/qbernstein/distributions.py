"""Moment providers: each supported law yields exact moments and its moment
generating function M as a truncated :class:`~qbernstein.series.Series`.

Each law states M once, as an online coefficient rule
(:meth:`Distribution.extend_mgf`) that appends the ordinary coefficient a_k
from a_0 .. a_(k-1), so M held at order N grows to any higher order without
a rebuild.  The compositional forms (exp(alpha (e^v - 1)),
p e^v / (1 - (1 - p) e^v), ...) are test oracles, as are the closed-form
moment routes.

Every MGF here has constant term exactly 1, which is the precondition for
raising it to arbitrary powers downstream.  Moments are read off the MGF as
exponential coefficients, so there is a single source of truth per law.

:func:`mgf_table` is the package's one cache: per law, an :class:`MgfTable`
holding M, (M - 1)^m and M^z at the largest order asked for so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import Series, extend_pow


class Distribution:
    """Base class; concrete laws implement :meth:`extend_mgf`."""

    name = "distribution"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Every law holds the generic mgf_series in its own namespace, so a
        # profiler (perfbench/tracing.py) can wrap it law by law.
        cls.mgf_series = Distribution.mgf_series

    def extend_mgf(self, coeffs: list, n: int) -> list:
        """Append to ``coeffs``, the ordinary coefficients a_0 = 1 .. of M held
        so far, those through index n, and return it; earlier entries are
        left untouched."""
        raise NotImplementedError

    def mgf_series(self, order: int) -> Series:
        """M through ``order``, built from its constant term."""
        return Series(self.extend_mgf([Fraction(1)], order))

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

    def extend_mgf(self, coeffs: list, n: int) -> list:
        # M' = alpha e^v M
        for k in range(len(coeffs), n + 1):
            tail = sum(
                (coeffs[j] / math.factorial(k - 1 - j) for j in range(k)), Fraction(0)
            )
            coeffs.append(self.alpha * tail / k)
        return coeffs

    def param_string(self) -> str:
        return f"alpha={self.alpha}"


@dataclass(frozen=True)
class Bernoulli(Distribution):
    p1: Fraction

    name = "bernoulli"

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def extend_mgf(self, coeffs: list, n: int) -> list:
        coeffs.extend(
            self.p1 * Fraction(1, math.factorial(k)) for k in range(len(coeffs), n + 1)
        )
        return coeffs

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

    def extend_mgf(self, coeffs: list, n: int) -> list:
        single = Bernoulli(self.p1).extend_mgf([Fraction(1)], n)
        return extend_pow(single, self.trials, coeffs, n)

    def param_string(self) -> str:
        return f"trials={self.trials};p1={self.p1}"


@dataclass(frozen=True)
class Geometric(Distribution):
    """Number of trials up to and including the first success; support 1, 2, ..."""

    p1: Fraction

    name = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def extend_mgf(self, coeffs: list, n: int) -> list:
        # M (1 - (1 - p) e^v) = p e^v
        ratio = (1 - self.p1) / self.p1
        for k in range(len(coeffs), n + 1):
            tail = sum(
                (coeffs[j] / math.factorial(k - j) for j in range(k)), Fraction(0)
            )
            coeffs.append(Fraction(1, math.factorial(k)) + ratio * tail)
        return coeffs

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

    def extend_mgf(self, coeffs: list, n: int) -> list:
        single = mgf_table(Geometric(self.p1)).series(n).coeffs
        return extend_pow(single, self.successes, coeffs, n)

    def param_string(self) -> str:
        return f"successes={self.successes};p1={self.p1}"


@dataclass(frozen=True)
class Uniform01(Distribution):
    name = "uniform01"

    def extend_mgf(self, coeffs: list, n: int) -> list:
        coeffs.extend(
            Fraction(1, math.factorial(k + 1)) for k in range(len(coeffs), n + 1)
        )
        return coeffs

    def param_string(self) -> str:
        return ""


@dataclass(frozen=True)
class Constant(Distribution):
    """The degenerate law Y = c with probability one."""

    value: Fraction

    name = "constant"

    def __post_init__(self):
        object.__setattr__(self, "value", _fr(self.value))

    def extend_mgf(self, coeffs: list, n: int) -> list:
        coeffs.extend(
            self.value**k * Fraction(1, math.factorial(k))
            for k in range(len(coeffs), n + 1)
        )
        return coeffs

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

    def extend_mgf(self, coeffs: list, n: int) -> list:
        if n >= len(self.moments):
            raise ValueError(
                f"only {len(self.moments)} moments provided, order {n} requested"
            )
        coeffs.extend(
            self.moments[k] * Fraction(1, math.factorial(k))
            for k in range(len(coeffs), n + 1)
        )
        return coeffs

    def param_string(self) -> str:
        return "moments=" + ",".join(str(m) for m in self.moments)


class MgfTable:
    """The coefficients of M, of the powers (M - 1)^m and of M^z for one law,
    each at the largest order asked for so far; a lower order is read from
    the prefix, and growing appends only the new coefficients.  M grows on a
    copy that is stored only on success, so a law short of the order asked
    for (a :class:`CustomMoments` law) raises and leaves the table as it was."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self._mgf = [Fraction(1)]  # coefficients of M
        self._minus_one = [[Fraction(1)]]  # coefficients of (M - 1)^m, m = 0, 1, ...
        self._powers = {}  # z -> coefficients of M^z, at most 16 exponents

    def _grown(self, order: int) -> list:
        """The coefficients of M, grown through at least ``order``."""
        if len(self._mgf) <= order:
            self._mgf = self.dist.extend_mgf(list(self._mgf), order)
        return self._mgf

    def series(self, order: int) -> Series:
        """M through ``order``."""
        return Series(self._grown(order)[: order + 1])

    def minus_one_coeff(self, m: int, n: int) -> Fraction:
        """The coefficient of v^n in (M - 1)^m, for 0 <= m <= n.  Growing to
        order n appends to each held power its new coefficients only;
        (M - 1)^j starts at v^j since M has constant term 1."""
        powers = self._minus_one
        if len(powers[-1]) <= n:
            b = self._grown(n)
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
        """M^z through ``order``; growing appends only its new coefficients."""
        held = self._powers.get(z, [Fraction(1)])
        if len(held) <= order:
            extend_pow(self._grown(order), z, held, order)
            if z not in self._powers:
                if len(self._powers) == 16:
                    del self._powers[next(iter(self._powers))]
                self._powers[z] = held
        return Series(held[: order + 1])


@lru_cache(maxsize=64)
def mgf_table(dist: Distribution) -> MgfTable:
    """The table of ``dist``, shared by equal laws."""
    return MgfTable(dist)
