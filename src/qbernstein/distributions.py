"""Moment providers: each supported law yields exact moments and its moment
generating function M as a truncated :class:`~qbernstein.series.Series`.

Each law states M once, as an online coefficient rule
(:meth:`Distribution.extend_mgf`) that appends the ordinary coefficient a_k
from a_0 .. a_(k-1), so M held at order N grows to any higher order without
a rebuild.  Poisson, Binomial, Geometric and NegBinomial state it in moment
form on integers (:class:`_MomentRule`): mu_k = N_k / c^k, each N_k one
integer sum of the earlier ones.  The compositional forms
(exp(alpha (e^v - 1)), p e^v / (1 - (1 - p) e^v), ...) are test oracles, as
are the closed-form moment routes.

Every MGF here has constant term exactly 1, which is the precondition for
raising it to arbitrary powers downstream.  Moments are read off the MGF as
exponential coefficients, so there is a single source of truth per law.

:func:`mgf_table` holds an :class:`MgfTable` for each of at most 64 laws: M,
(M - 1)^m and M^z for one z to the largest order asked; only ``_grown`` runs a
law's rule, and a law with a moment rule keeps the integer moment numerators
it has computed.  The other caches, all bounded, are :mod:`qbernstein.padic`'s
``_rules`` (16 values of q), ``_basis`` (8192 entries) and ``_weights`` (1024).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

from .series import MillerPower, Series, append_numerators


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
        """M through ``order``, read from the law's table."""
        return mgf_table(self).series(order)

    def moment(self, n: int) -> Fraction:
        """E[Y^n], extracted from the MGF."""
        if n < 0:
            raise ValueError("moment index must be nonnegative")
        return mgf_table(self).series(n).egf_coeff(n)

    def param_string(self) -> str:
        """The law's parameters as "name=value" pairs joined by ";"."""
        return ";".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


def _check_p1(p1: Fraction) -> Fraction:
    p1 = Fraction(p1)
    if not 0 < p1 <= 1:
        raise ValueError("success probability must lie in (0, 1]")
    return p1


class _MomentRule(Distribution):
    """A law whose moments are mu_k = N_k / c^k, with c a fixed integer and
    N_0 = 1, N_1, ... integers that :meth:`_extend_numerators` appends, each
    by one integer sum of the earlier ones; so a_k = N_k / (c^k k!).  The law
    holds the N_k it has computed (not a field, so equality and hashing
    ignore it).  They are a prefix of one fixed sequence, which any caller,
    at any order, reads alike."""

    def extend_mgf(self, coeffs: list, n: int) -> list:
        nums = vars(self).setdefault("_numerators", [1])
        if len(nums) <= n:
            self._extend_numerators(nums, n)
        c = self._base()
        coeffs.extend(
            Fraction(nums[k], c**k * math.factorial(k)) for k in range(len(coeffs), n + 1)
        )
        return coeffs

    def _base(self) -> int:
        """c: the denominator of mu_k divides c^k."""
        raise NotImplementedError

    def _extend_numerators(self, nums: list, n: int) -> None:
        """Append N_k to ``nums`` for k = len(nums) .. n."""
        raise NotImplementedError


@dataclass(frozen=True)
class Poisson(_MomentRule):
    alpha: Fraction

    name = "poisson"

    def __post_init__(self):
        a = Fraction(self.alpha)
        if a <= 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "alpha", a)

    def _base(self) -> int:
        return self.alpha.denominator

    def _extend_numerators(self, nums: list, n: int) -> None:
        # M' = alpha e^v M: mu_k = alpha sum over j < k of C(k - 1, j) mu_j, so
        # with alpha = p/q, N_k = p sum over j < k of C(k - 1, j) N_j q^(k-1-j)
        p, q = self.alpha.numerator, self.alpha.denominator
        for k in range(len(nums), n + 1):
            acc = 0
            for j in range(k):  # Horner in q
                acc = acc * q + math.comb(k - 1, j) * nums[j]
            nums.append(p * acc)


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


@dataclass(frozen=True)
class Binomial(_MomentRule):
    trials: int
    p1: Fraction

    name = "binomial"

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trial count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def _base(self) -> int:
        return self.p1.denominator

    def _extend_numerators(self, nums: list, n: int) -> None:
        # (1 - p + p e^v) M' = N p e^v M gives, at v^k/k!,
        # mu_(k+1) = p (N sum over i <= k of C(k, i) mu_i
        #               - sum over i < k of C(k, i) mu_(i+1)),
        # and with p = s/t both sums are Horner sums in t.
        s, t, trials = self.p1.numerator, self.p1.denominator, self.trials
        for k in range(len(nums) - 1, n):
            low = high = 0
            for i in range(k):
                c = math.comb(k, i)
                low = low * t + c * nums[i]
                high = high * t + c * nums[i + 1]
            nums.append(s * (trials * (low * t + nums[k]) - high))


@dataclass(frozen=True)
class NegBinomial(_MomentRule):
    """Trials needed for ``successes`` successes; support a, a+1, ..."""

    successes: int
    p1: Fraction

    name = "negbinomial"

    def __post_init__(self):
        if not isinstance(self.successes, int) or self.successes < 1:
            raise ValueError("success count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def _base(self) -> int:
        return self.p1.numerator**self.successes

    def _extend_numerators(self, nums: list, n: int) -> None:
        # M G = p^a e^(a v) with G = (1 - (1 - p) e^v)^a, whose moments are
        # eta_m / t^a, eta_m = sum over j of C(a, j) (s - t)^j t^(a-j) j^m for
        # p = s/t.  At v^k/k!, with S = s^a = eta_0:
        # N_k = a^k S^k - sum over i < k of C(k, i) N_i eta_(k-i) S^(k-1-i),
        # and the sum over i splits by j (j = 0 adds nothing) into Horner sums
        # in j S, each times j and the j-th term of eta.
        a, s, t = self.successes, self.p1.numerator, self.p1.denominator
        big = s**a
        steps = [
            (j * big, j * math.comb(a, j) * (s - t) ** j * t ** (a - j))
            for j in range(1, a + 1)
        ]
        for k in range(len(nums), n + 1):
            terms = [math.comb(k, i) * nums[i] for i in range(k)]
            tail = 0
            for step, weight in steps:
                acc = 0
                for term in terms:
                    acc = acc * step + term
                tail += weight * acc
            nums.append((a * big) ** k - tail)


@dataclass(frozen=True)
class Geometric(_MomentRule):
    """Number of trials up to and including the first success; support 1, 2, ...
    M is NegBinomial's at one success, and so is its rule."""

    p1: Fraction

    name = "geometric"
    successes = 1  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    _base = NegBinomial._base
    _extend_numerators = NegBinomial._extend_numerators


@dataclass(frozen=True)
class Uniform01(Distribution):
    name = "uniform01"

    def extend_mgf(self, coeffs: list, n: int) -> list:
        coeffs.extend(
            Fraction(1, math.factorial(k + 1)) for k in range(len(coeffs), n + 1)
        )
        return coeffs


@dataclass(frozen=True)
class Constant(Distribution):
    """The degenerate law Y = c with probability one."""

    value: Fraction

    name = "constant"

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def extend_mgf(self, coeffs: list, n: int) -> list:
        coeffs.extend(
            self.value**k * Fraction(1, math.factorial(k))
            for k in range(len(coeffs), n + 1)
        )
        return coeffs


@dataclass(frozen=True)
class CustomMoments(Distribution):
    """An arbitrary exact moment sequence; the first entry must be 1.

    Useful for probing where an identity genuinely needs a degenerate law:
    any sequence at all can be fed through the same machinery.
    """

    moments: tuple

    name = "custom"

    def __post_init__(self):
        ms = tuple(Fraction(m) for m in self.moments)
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
    """The coefficients of M, of the powers (M - 1)^m and of M^z for one law
    and one z (callers ask for one at a time), each at the largest order
    asked for so far; a lower order is read from the prefix, and growing
    appends only the new coefficients.  M grows on a copy that is stored only
    on success, so a law short of the order asked for (a :class:`CustomMoments`
    law) raises and leaves the table as it was.

    Every list is held as Fractions for reading, beside the integer state its
    new coefficients are computed from, each normalised once into a Fraction
    (FLINT's ``fmpq_poly`` layout).  For the rows, through order n, that state
    is D, the common denominator of M through n, the numerators of M over D,
    and (M - 1)^j as integer numerators over D^j; a new coefficient of
    (M - 1)^j is the integer sum of the numerators of (M - 1)^(j - 1) times
    those of M.  M^z is a :class:`~qbernstein.series.MillerPower`, which holds
    its own.  A growth that brings a larger D' rescales what is held instead
    of deriving it again: the numerators of M by D'/D and row j by (D'/D)^j.
    The held exponent z is matched by identity, then by value, so the same
    object read again costs no comparison and an equal one still reuses the
    held power; another z replaces it.  A negative index raises ValueError."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self._mgf = [Fraction(1)]  # coefficients of M
        self._minus_one = [[Fraction(1)]]  # coefficients of (M - 1)^m, m = 0, 1, ...
        self._rows = [[1]]  # their numerators, (M - 1)^j over D^j
        self._den, self._nums = 1, [1]  # D, and M over D, through the rows' order
        self._zpow = None  # the MillerPower of the held exponent

    def _grown(self, order: int) -> list:
        """The coefficients of M, grown through at least ``order``."""
        if len(self._mgf) <= order:
            self._mgf = self.dist.extend_mgf(list(self._mgf), order)
        return self._mgf

    def series(self, order: int) -> Series:
        """M through ``order``."""
        return Series(self._grown(order)[: order + 1])

    def minus_one_coeff(self, m: int, n: int) -> Fraction:
        """The coefficient of v^n in (M - 1)^m; 0 for m > n."""
        if m < 0 or n < 0:
            raise ValueError("coefficient indices must be nonnegative")
        if m > n:
            return Fraction(0)
        if len(self._minus_one[-1]) <= n:
            self._grow_minus_one(n)
        return self._minus_one[m][n]

    def _grow_minus_one(self, n: int):
        """Grow every held (M - 1)^j, j <= n, through order n, appending only
        the new coefficients; (M - 1)^j starts at v^j since M has constant
        term 1."""
        new = self._grown(n)[len(self._nums) : n + 1]
        self._den, ratio = append_numerators(self._den, self._nums, new)
        den, nums, rows, powers = self._den, self._nums, self._rows, self._minus_one
        if ratio != 1:
            factor = 1
            for row in rows[1:]:
                factor *= ratio
                row[:] = [c * factor for c in row]
        rows[0].extend([0] * (n + 1 - len(rows[0])))
        powers[0].extend([Fraction(0)] * (n + 1 - len(powers[0])))
        scale = 1
        for j in range(1, n + 1):
            scale *= den
            if j == len(rows):
                rows.append([0] * j)
                powers.append([Fraction(0)] * j)
            prev, row, power = rows[j - 1], rows[j], powers[j]
            for k in range(len(row), n + 1):
                acc = sum(prev[i] * nums[k - i] for i in range(j - 1, k))
                row.append(acc)
                power.append(Fraction(acc, scale))

    def _power(self, z, order: int) -> list:
        """The coefficients of M^z, grown through at least ``order``; growing
        appends only the new coefficients, and another z replaces the held one."""
        power = self._zpow
        if power is None or not (z is power.z or z == power.z):
            power = MillerPower(z)
        if len(power.coeffs) <= order:
            self._grown(order)
            power.grow(self._mgf, order)
            self._zpow = power
        return power.coeffs

    def power(self, z, order: int) -> Series:
        """M^z through ``order``."""
        return Series(self._power(z, order)[: order + 1])

    def power_coeff(self, z, n: int) -> Fraction:
        """The coefficient of v^n in M^z."""
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self._power(z, n)[n]


@lru_cache(maxsize=64)
def mgf_table(dist: Distribution) -> MgfTable:
    """The table of ``dist``, shared by equal laws."""
    return MgfTable(dist)
