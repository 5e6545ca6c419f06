"""Moment providers: each supported law states its moments exactly, and its
table reads M, the partial Bell numbers of (M - 1)^m and M^z off them.

A law states its moments in integer form over a base: mu_k = N_k / c^k, with
N_0 = 1 and c an integer from :meth:`Distribution._base`.
:meth:`Distribution._extend_numerators` appends the N_k.  Poisson, Bernoulli,
Binomial, Geometric, NegBinomial and Constant state only the linear ODE their
M solves, (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M with M(0) = 1, as integers
(Q0, Q1, P1, S) with S > 0, and one rule reads their N_k off it over the fixed
base c = S.  Only Uniform01 (the product of the primes up to n + 1) and
CustomMoments (the lcm of its denominators through n) state their own rule,
over a base that grows with the order n asked for; the table rescales what
it holds when it does.  The closed forms of M (exp(alpha (e^v - 1)),
p e^v / (1 - (1 - p) e^v), ...) are test oracles, as are the closed-form
moment routes.

Every MGF here has constant term exactly 1, which is the precondition for
raising it to arbitrary powers downstream.  The moments are the one source
of truth per law: M is sum over k of mu_k v^k / k!.

:func:`mgf_table` gives a law's :class:`MgfTable`, held in the law object's
own dict; a law object's first read finds it in a cache of at most 64 tables
that equal laws share.  A law is an immutable value (:class:`Distribution`),
hashed once, when it is built, so no cache keyed on it hashes a Fraction.
Only ``_grown`` runs a law's rule.  The other caches, all bounded, are
:mod:`qbernstein.padic`'s ``_rules`` (16 values of q) and ``_rows`` (1024
rows, one per q, r and w).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .series import Series


class Distribution:
    """Base class; a concrete law names its parameters in ``_fields``, checks
    them in :meth:`_check`, and states in :meth:`_ode` the linear ODE
    (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M that its M solves, from which the
    default :meth:`_base` and :meth:`_extend_numerators` read its moments over
    the base S.  Only Uniform01 and CustomMoments, whose bases grow with the order,
    implement those two instead.  A law is an immutable value, built from its
    fields by position or by keyword.  Laws are equal when of the same kind
    with equal fields, so ``Poisson(2) != Constant(2)``; the hash, that of the
    field tuple, is computed once, at the end of construction; the repr names
    every field, as in ``Poisson(alpha=Fraction(3, 2))``.  Once a law is built,
    only :func:`mgf_table` writes to it, through ``vars(law)``."""

    name = "distribution"
    _fields = ()

    def __init__(self, *args, **kwargs):
        held, fields = vars(self), self._fields
        held.update(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or kwargs and held.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        self._check()
        key = held["_key"] = tuple([held[f] for f in fields])
        held["_hash"] = hash(key)

    def _check(self) -> None:
        """Validate the fields, storing each in its normal form."""

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a law is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Every law holds the generic mgf_series in its own namespace, so a
        # profiler (perfbench/tracing.py) can wrap it law by law.
        cls.mgf_series = Distribution.mgf_series

    def _ode(self) -> tuple[int, int, int, int]:
        """(Q0, Q1, P1, S), integers with S > 0, such that M is the solution
        with M(0) = 1 of (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M."""
        raise NotImplementedError

    def _base(self, n: int) -> int:
        """c: c^k mu_k is an integer for every k <= n.  The base at a larger
        n is a multiple of this one; for a law stated by its ODE it is S."""
        return self._ode()[3]

    def _extend_numerators(self, nums: list, c: int, n: int) -> None:
        """Append N_k = c^k mu_k to ``nums`` for k = len(nums) .. n, where
        ``nums`` holds N_0 = 1 .. over the same base c = ``_base(n)``.

        For a law stated by its ODE, c = S, and the ODE read at v^k/k! gives
        N_(k+1) = Q0 N_k + Q1 sum over i <= k of C(k, i) N_i S^(k-i)
        - P1 sum over i < k of C(k, i) N_(i+1) S^(k-1-i), each sum a Horner
        sum in S."""
        q0, q1, p1, s = self._ode()
        for k in range(len(nums) - 1, n):
            low = high = 0
            for i in range(k):
                b = math.comb(k, i)
                low = low * s + b * nums[i]
                high = high * s + b * nums[i + 1]
            nums.append(q0 * nums[k] + q1 * (low * s + nums[k]) - p1 * high)

    def mgf_series(self, order: int) -> Series:
        """M through ``order``, read from the law's table."""
        return mgf_table(self).series(order)

    def moment(self, n: int) -> Fraction:
        """E[Y^n], read from the law's table."""
        if n < 0:
            raise ValueError("moment index must be nonnegative")
        return mgf_table(self).moment(n)

    def param_string(self) -> str:
        """The law's parameters as "name=value" pairs joined by ";"."""
        return ";".join(f"{f}={v}" for f, v in zip(self._fields, self._key))


def _check_p1(p1: Fraction) -> Fraction:
    p1 = Fraction(p1)
    if not 0 < p1 <= 1:
        raise ValueError("success probability must lie in (0, 1]")
    return p1


class Poisson(Distribution):
    _fields = ("alpha",)

    name = "poisson"

    def _check(self):
        a = Fraction(self.alpha)
        if a <= 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "alpha", a)

    def _ode(self):
        # M' = alpha e^v M
        return 0, self.alpha.numerator, 0, self.alpha.denominator


class Binomial(Distribution):
    _fields = ("trials", "p1")

    name = "binomial"

    def _check(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError("trial count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def _ode(self):
        # (1 - p + p e^v) M' = N p e^v M, with p = s/t
        s, t = self.p1.numerator, self.p1.denominator
        return 0, self.trials * s, s, t


class Bernoulli(Distribution):
    """M is Binomial's at one trial, and so is its ODE."""

    _fields = ("p1",)

    name = "bernoulli"
    trials = 1  # a class constant, not a field

    def _check(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    _ode = Binomial._ode


class NegBinomial(Distribution):
    """Trials needed for ``successes`` successes; support a, a+1, ..."""

    _fields = ("successes", "p1")

    name = "negbinomial"

    def _check(self):
        if not isinstance(self.successes, int) or self.successes < 1:
            raise ValueError("success count must be a positive integer")
        object.__setattr__(self, "p1", _check_p1(self.p1))

    def _ode(self):
        # (1 - (1 - p) e^v) M' = a M, with p = s/t
        s, t = self.p1.numerator, self.p1.denominator
        return self.successes * t, 0, s - t, s


class Geometric(Distribution):
    """Number of trials up to and including the first success; support 1, 2, ...
    M is NegBinomial's at one success, and so is its ODE."""

    _fields = ("p1",)

    name = "geometric"
    successes = 1  # a class constant, not a field

    def _check(self):
        object.__setattr__(self, "p1", _check_p1(self.p1))

    _ode = NegBinomial._ode


class Constant(Distribution):
    """The degenerate law Y = c with probability one."""

    _fields = ("value",)

    name = "constant"

    def _check(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def _ode(self):
        # M' = c M
        return self.value.numerator, 0, 0, self.value.denominator


class Uniform01(Distribution):
    name = "uniform01"

    def _base(self, n: int) -> int:
        # mu_k = 1/(k + 1), and (k + 1) | c^k for every k <= n once c is the
        # product of the primes up to n + 1
        primes = (p for p in range(2, n + 2) if all(p % d for d in range(2, math.isqrt(p) + 1)))
        return math.prod(primes)

    def _extend_numerators(self, nums: list, c: int, n: int) -> None:
        nums.extend(c**k // (k + 1) for k in range(len(nums), n + 1))


class CustomMoments(Distribution):
    """An arbitrary exact moment sequence; the first entry must be 1.

    Useful for probing where an identity genuinely needs a degenerate law:
    any sequence at all can be fed through the same machinery.  Its base
    through n is the lcm of the denominators of mu_0 .. mu_n.
    """

    _fields = ("moments",)

    name = "custom"

    def _check(self):
        ms = tuple(Fraction(m) for m in self.moments)
        if not ms or ms[0] != 1:
            raise ValueError("moment sequence must start with 1")
        object.__setattr__(self, "moments", ms)

    def _base(self, n: int) -> int:
        if n >= len(self.moments):
            raise ValueError(
                f"only {len(self.moments)} moments provided, order {n} requested"
            )
        return math.lcm(*(m.denominator for m in self.moments[: n + 1]))

    def _extend_numerators(self, nums: list, c: int, n: int) -> None:
        ms = self.moments
        nums.extend(ms[k].numerator * c**k // ms[k].denominator for k in range(len(nums), n + 1))

    def param_string(self) -> str:
        return "moments=" + ",".join(str(m) for m in self.moments)


class MgfTable:
    """One law's moments, the partial Bell numbers of (M - 1)^m, and M^z for
    one z (callers ask for one at a time), each held as integers over the
    law's base c, to the largest order asked for so far.  A lower order is
    read from the prefix, and growing appends only the new entries.

    - N_k = c^k mu_k, from the law's rule.
    - A_m(n) = c^n B_(n,m), where B_(n,m) = n!/m! [v^n] (M - 1)^m is the
      partial Bell polynomial B_(n,m)(mu_1, mu_2, ...) (Comtet, Advanced
      Combinatorics, 1974, 3.3), that is the probabilistic Stirling number
      S_2^Y(n, m).  Its recurrence B_(n,m) = sum over i of C(n - 1, i - 1)
      mu_i B_(n-i,m-1) gives A_m(n) = sum over i of C(n - 1, i - 1) N_i
      A_(m-1)(n - i), an integer sum with no common denominator to find.
    - Beta_k = (zd c)^k beta_k, where beta_k = k! [v^k] M^z for z = zn/zd.
      Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) in exponential form,
      beta_k = sum over j of (z C(k - 1, j - 1) - C(k - 1, j)) mu_j
      beta_(k-j), gives Beta_k = sum over j of (zn C(k - 1, j - 1)
      - zd C(k - 1, j)) zd^(j-1) N_j Beta_(k-j).  This kernel is the
      table's own: :meth:`~qbernstein.series.Series.pow` runs Miller's
      recurrence in ordinary form over a common denominator, and the two
      share no code, so the audit's T2.8 and R2.1, which set the table's
      M^X1 against ``Series.pow``, compare two kernels.

    Each coefficient read forms one ``Fraction``; a series read
    (:meth:`series`, :meth:`power`) is carried to the integer layout of
    :class:`~qbernstein.series.Series` by :func:`_ordinary`, this table's own
    read-out, and normalised once.  When a growth brings a larger base c'
    (Uniform01, CustomMoments), :meth:`_rescale` multiplies every held
    integer of index k by (c'/c)^k; nothing else is ever rescaled.  A law
    short of the order asked for (a :class:`CustomMoments` law) raises from
    its base, before anything changes.  The held exponent z is matched by
    identity, then by value, so the same object read again costs no
    comparison and an equal one still reuses the held power; another z
    replaces it.  A negative index raises ValueError."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self._base = 1  # c
        self._nums = [1]  # N_0 .. N_k
        self._rows = [[1]]  # A_m(0 .. n) for m = 0 .. n
        self._z, self._zpow = None, [1]  # the held z and Beta_0 ..

    def _grown(self, order: int) -> list:
        """N_0 .. N_k, grown through at least ``order``."""
        nums = self._nums
        if len(nums) <= order:
            base = self.dist._base(order)
            if base != self._base:
                self._rescale(base // self._base)
                self._base = base
            self.dist._extend_numerators(nums, base, order)
        return nums

    def _rescale(self, ratio: int):
        """Carry every held integer over c to the base ratio c: the one of
        index k (N_k, A_m(k), Beta_k) times ratio^k."""
        powers = [ratio**k for k in range(len(self._nums))]
        for held in (self._nums, self._zpow, *self._rows):
            held[:] = [x * w for x, w in zip(held, powers)]

    def series(self, order: int) -> Series:
        """M through ``order``: a_k = N_k / (c^k k!)."""
        nums = self._grown(order)
        return _ordinary(nums, self._base, order)

    def moment(self, n: int) -> Fraction:
        """mu_n = N_n / c^n."""
        return Fraction(self._grown(n)[n], self._base**n)

    def bell(self, n: int, m: int) -> Fraction:
        """B_(n,m) = A_m(n) / c^n; 0 for m > n."""
        if n < 0 or m < 0:
            raise ValueError("indices must be nonnegative")
        if m > n:
            return Fraction(0)
        if len(self._rows[0]) <= n:
            self._grow_rows(n)
        return Fraction(self._rows[m][n], self._base**n)

    def bell_parts(self, n: int) -> tuple[list, int]:
        """[A_0(n) .. A_n(n)] and c^n, whose quotients are B_(n,m) for m <= n;
        the list is a copy, so a later base rescale leaves it as read."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        rows = self._rows
        if len(rows[0]) <= n:
            self._grow_rows(n)
        return [row[n] for row in rows[: n + 1]], self._base**n

    def _grow_rows(self, n: int):
        """Append A_m(k) for every m <= k, k = held order + 1 .. n; A_m(k) = 0
        for m > k, since M - 1 starts at v^1."""
        nums, rows = self._grown(n), self._rows
        for k in range(len(rows[0]), n + 1):
            weights = [0] + [math.comb(k - 1, i - 1) * nums[i] for i in range(1, k + 1)]
            rows[0].append(0)
            rows.append([0] * k)
            for m in range(1, k + 1):
                prev = rows[m - 1]
                rows[m].append(sum(weights[i] * prev[k - i] for i in range(1, k - m + 2)))

    def _power(self, z, order: int) -> list:
        """Beta_0 .. of z, grown through at least ``order``."""
        if not isinstance(z, (int, Fraction)):
            raise TypeError("the table's M^z needs a Fraction or int exponent")
        self._grown(order)  # raises before the held exponent is replaced
        if not (z is self._z or z == self._z):
            self._z, self._zpow = z, [1]
        if len(self._zpow) <= order:
            self._grow_power(order)
        return self._zpow

    def _grow_power(self, order: int):
        """Append Beta_k of the held z for k = held order + 1 .. ``order``."""
        nums, held, zn, zd = self._nums, self._zpow, self._z.numerator, self._z.denominator
        for k in range(len(held), order + 1):
            binom = [math.comb(k - 1, i) for i in range(k + 1)]
            acc = 0
            for j in range(k, 0, -1):  # Horner in zd, from the top term down
                acc = acc * zd + (zn * binom[j - 1] - zd * binom[j]) * nums[j] * held[k - j]
            held.append(acc)

    def power(self, z, order: int) -> Series:
        """M^z through ``order``: b_k = Beta_k / ((zd c)^k k!)."""
        held = self._power(z, order)
        return _ordinary(held, z.denominator * self._base, order)

    def power_parts(self, z, k: int) -> tuple[int, int]:
        """Beta_k and (zd c)^k, whose quotient is beta_k = k! [v^k] M^z; the
        caller that forms a value from them normalises once."""
        if k < 0:
            raise ValueError("coefficient index must be nonnegative")
        held = self._power(z, k)
        return held[k], (z.denominator * self._base) ** k


def _ordinary(exponential: list, scale: int, order: int) -> Series:
    """The series whose coefficient of v^k is exponential[k] / (scale^k k!),
    for k <= order, over the one denominator scale^order order!: the weight
    of index k is that denominator over scale^k k!, divided down from k = 0."""
    den = weight = scale**order * math.factorial(order)
    nums = []
    for k in range(order + 1):
        nums.append(exponential[k] * weight)
        if k < order:
            weight //= scale * (k + 1)
    return Series.over(nums, den)


def mgf_table(dist: Distribution) -> MgfTable:
    """The table of ``dist``, held in the law object's own dict: only a law
    object's first read hashes it, into :func:`_shared_table`, so equal laws
    share one table."""
    table = vars(dist).get("_table")
    if table is None:
        table = vars(dist)["_table"] = _shared_table(dist)
    return table


@lru_cache(maxsize=64)
def _shared_table(dist: Distribution) -> MgfTable:
    return MgfTable(dist)
