"""Moment providers: each supported law states its moments exactly, and its
table reads M, the partial Bell numbers of (M - 1)^m and M^z off them.

A law states mu_k as an integer pair (N, d) with mu_k = N / d
(:meth:`Distribution._moment`).  Poisson, Bernoulli, Binomial, Geometric,
NegBinomial and Constant state only the linear ODE their M solves,
(S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M with M(0) = 1, as integers
(Q0, Q1, P1, S) with S > 0, and one rule reads their mu_k off it over
d = S^k.  Uniform01 states mu_k = 1/(k + 1) and CustomMoments its k-th
given moment.  The table holds index k over one fixed denominator D_k, the
least with d_k | D_k and D_i D_j | D_(i+j); for the ODE laws D_k = S^k.  It
holds the partial Bell numbers by row n, as every reader reads them.  The
closed forms of M (exp(alpha (e^v - 1)), p e^v / (1 - (1 - p) e^v), ...) are
test oracles, as are the closed-form moment routes.

Every MGF here has constant term exactly 1, which is the precondition for
raising it to arbitrary powers downstream.  The moments are the one source
of truth per law: M is sum over k of mu_k v^k / k!.

A law states one gate per field beside the field's name: the function that
checks the value given and returns its normal form, run once as the law is
built.  The gates live in :mod:`qbernstein.rings`, so that the command line
applies them while it parses the flags, before this module loads.  A law is
an immutable value, hashed once as it is built, when it also takes its
:class:`MgfTable` from a cache of 64 that equal laws share; :func:`mgf_table`
reads it.  Only ``_grown`` runs a law's rule.  The other caches, all bounded,
are :mod:`qbernstein.padic`'s ``_rules`` (16 values of q) and ``_rows`` (1024
rows, one per q, r and w).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rings import _check_p1, _count, _frac, _index, _moments, _positive, _Value
from .series import Series


class Distribution(_Value):
    """Base class; a concrete law names its parameters in ``_fields``, states
    one gate per field in ``_gates``, in the same order, which checks the value
    given and returns the one held, and states in :meth:`_ode` the linear ODE
    (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M that its M solves, from which the
    default :meth:`_moment` reads mu_k over S^k; only Uniform01 and
    CustomMoments state their moments directly.  A law is an immutable value
    (:class:`~qbernstein.rings._Value`) keyed on its field tuple, built by
    position or keyword, so ``Poisson(2) != Constant(2)``; its last step binds
    the table, shared with equal laws, and nothing writes to the law after."""

    name = "distribution"
    _gates = ()

    def __init__(self, *args, **kwargs):
        held, fields = vars(self), self._fields
        held.update(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or kwargs and held.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        key = held["_key"] = tuple([gate(held[f]) for f, gate in zip(fields, self._gates)])
        held.update(zip(fields, key), _hash=hash(key))
        held["_table"] = _shared_table(self)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Every law holds the generic mgf_series in its own namespace, so a
        # profiler (perfbench/tracing.py) can wrap it law by law.
        cls.mgf_series = Distribution.mgf_series

    def _ode(self) -> tuple[int, int, int, int]:
        """(Q0, Q1, P1, S), integers with S > 0, such that M is the solution
        with M(0) = 1 of (S - P1 + P1 e^v) M' = (Q0 + Q1 e^v) M."""
        raise NotImplementedError

    def _moment(self, k: int, nums: list, order: int) -> tuple[int, int]:
        """(N, d) with mu_k = N / d, for 0 < k <= ``order``, the order the
        table grows to; ``nums`` holds N_0 .. N_(k-1), each over the table's
        D_i.  For a law stated by its ODE, d = S^k, so D_i = S^i, and the ODE
        read at v^j/j! for j = k - 1 gives N_k = Q0 N_j + Q1 sum over i <= j
        of C(j, i) N_i S^(j-i) - P1 sum over i < j of C(j, i) N_(i+1)
        S^(j-1-i), each sum a Horner sum in S."""
        q0, q1, p1, s = self._ode()
        j, low, high = k - 1, 0, 0
        for i in range(j):
            b = math.comb(j, i)
            low = low * s + b * nums[i]
            high = high * s + b * nums[i + 1]
        return q0 * nums[j] + q1 * (low * s + nums[j]) - p1 * high, s**k

    def mgf_series(self, order: int) -> Series:
        """M through ``order``, read from the law's table."""
        return mgf_table(self).series(order)

    def moment(self, n: int) -> Fraction:
        """E[Y^n], read from the law's table."""
        return mgf_table(self).moment(n)

    def param_string(self) -> str:
        """The law's parameters as "name=value" pairs joined by ";"."""
        return ";".join(f"{f}={v}" for f, v in zip(self._fields, self._key))


class Poisson(Distribution):
    _fields, _gates = ("alpha",), (_positive,)

    name = "poisson"

    def _ode(self):
        # M' = alpha e^v M
        return 0, self.alpha.numerator, 0, self.alpha.denominator


class Binomial(Distribution):
    _fields, _gates = ("trials", "p1"), (_count, _check_p1)

    name = "binomial"

    def _ode(self):
        # (1 - p + p e^v) M' = N p e^v M, with p = s/t
        s, t = self.p1.numerator, self.p1.denominator
        return 0, self.trials * s, s, t


class Bernoulli(Binomial):
    """Binomial at one trial, of its own kind: ``Bernoulli(p) != Binomial(1, p)``."""

    _fields, _gates = ("p1",), (_check_p1,)

    name = "bernoulli"
    trials = 1  # a class constant, not a field


class NegBinomial(Distribution):
    """Trials needed for ``successes`` successes; support a, a+1, ..."""

    _fields, _gates = ("successes", "p1"), (_count, _check_p1)

    name = "negbinomial"

    def _ode(self):
        # (1 - (1 - p) e^v) M' = a M, with p = s/t
        s, t = self.p1.numerator, self.p1.denominator
        return self.successes * t, 0, s - t, s


class Geometric(NegBinomial):
    """Number of trials up to and including the first success; support 1, 2, ...
    NegBinomial at one success, of its own kind: ``Geometric(p) != NegBinomial(1, p)``."""

    _fields, _gates = ("p1",), (_check_p1,)

    name = "geometric"
    successes = 1  # a class constant, not a field


class Constant(Distribution):
    """The degenerate law Y = c with probability one."""

    _fields, _gates = ("value",), (_frac,)

    name = "constant"

    def _ode(self):
        # M' = c M
        return self.value.numerator, 0, 0, self.value.denominator


class Uniform01(Distribution):
    name = "uniform01"

    def _moment(self, k, nums, order):
        return 1, k + 1


class CustomMoments(Distribution):
    """An arbitrary exact moment sequence; the first entry must be 1.

    Useful for probing where an identity genuinely needs a degenerate law:
    any sequence at all can be fed through the same machinery.  A table
    grown past its last moment raises ValueError.
    """

    _fields, _gates = ("moments",), (_moments,)

    name = "custom"

    def _moment(self, k, nums, order):
        if k >= len(self.moments):
            raise ValueError(
                f"only {len(self.moments)} moments provided, order {order} requested"
            )
        return self.moments[k].as_integer_ratio()

    def param_string(self) -> str:
        return "moments=" + ",".join(str(m) for m in self.moments)


class MgfTable:
    """One law's moments, the partial Bell numbers of (M - 1)^m, and M^z for
    one z (callers ask for one at a time), to the largest order asked for so
    far, each held as an integer over a denominator fixed by its index k.  A
    lower order is read from the prefix, and growing appends only the new
    entries.

    - D_k = lcm(d_k, D_i D_(k-i) for 0 < i < k), with D_0 = 1, where mu_k =
      N/d_k is the law's pair: the least D_k with d_k | D_k and
      D_i D_j | D_(i+j).  A law stated by its ODE has D_k = S^k; Uniform01's
      D_k is the product over primes p of p^floor(k/(p - 1)).  The split
      D_k/(D_i D_(k-i)), an integer, is held for every i <= k.
    - N_k = D_k mu_k.
    - A_m(n) = D_n B_(n,m), where B_(n,m) = n!/m! [v^n] (M - 1)^m is the
      partial Bell polynomial B_(n,m)(mu_1, mu_2, ...) (Comtet, Advanced
      Combinatorics, 1974, 3.3), that is the probabilistic Stirling number
      S_2^Y(n, m).  Its recurrence B_(n,m) = sum over i of C(n - 1, i - 1)
      mu_i B_(n-i,m-1) gives A_m(n) = sum over i of C(n - 1, i - 1)
      D_n/(D_i D_(n-i)) N_i A_(m-1)(n - i), an integer sum.  Row n, the
      tuple (A_0(n), .., A_n(n)) over D_n, is held whole, with no padding;
      it is what :meth:`bell_parts` returns and :meth:`bell` reads.
    - Beta_k = zd^k D_k beta_k, where beta_k = k! [v^k] M^z for z = zn/zd.
      Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) in exponential form,
      beta_k = sum over j of (z C(k - 1, j - 1) - C(k - 1, j)) mu_j
      beta_(k-j), gives Beta_k = sum over j of (zn C(k - 1, j - 1)
      - zd C(k - 1, j)) zd^(j-1) D_k/(D_j D_(k-j)) N_j Beta_(k-j).  This
      kernel is the table's own: :meth:`~qbernstein.series.Series.pow` runs
      Miller's recurrence in ordinary form over a common denominator, and
      the two share no code, so the audit's T2.8 and R2.1, which set the
      table's M^X1 against ``Series.pow``, compare two kernels.

    Each coefficient read forms one ``Fraction``; a series read
    (:meth:`series`, :meth:`power`) is carried to the integer layout of
    :class:`~qbernstein.series.Series` by :func:`_ordinary`, this table's own
    read-out, and normalised once.  A held integer never changes once
    appended, and a held Bell row is a tuple, so a reader cannot change it.
    Growth runs on copies of the N_k, D_k and splits, so a law
    short of the order asked for (a :class:`CustomMoments` law) raises
    before anything changes.  The held exponent z is matched by identity,
    then by value, so the same object read again costs no comparison and an
    equal one still reuses the held power; another z replaces it.  Every
    index passes :func:`~qbernstein.rings._index`."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self._nums, self._dens = [1], [1]  # N_0 .. N_k and D_0 .. D_k
        self._splits = [[1]]  # D_k/(D_i D_(k-i)) for i = 0 .. k, k = 0 ..
        self._rows = [(1,)]  # row n = (A_0(n) .. A_n(n)) for n = 0 ..
        self._z, self._zpow = None, []  # the held z and Beta_0 .., none yet

    def _grown(self, order: int) -> list:
        """N_0 .. N_k, grown through at least ``order``, with their D_k and
        splits."""
        nums, order = self._nums, _index(order)
        if len(nums) <= order:
            nums, dens, splits = list(nums), list(self._dens), list(self._splits)
            for k in range(len(nums), order + 1):
                num, den = self.dist._moment(k, nums, order)
                products = [dens[i] * dens[k - i] for i in range(1, k)]
                dens.append(math.lcm(den, *products))
                nums.append(num * (dens[k] // den))
                splits.append([1, *(dens[k] // p for p in products), 1])
            self._nums, self._dens, self._splits = nums, dens, splits
        return nums

    def series(self, order: int) -> Series:
        """M through ``order``: a_k = N_k / (D_k k!)."""
        nums = self._grown(order)
        return _ordinary(nums, self._dens, 1, order)

    def moment(self, n: int) -> Fraction:
        """mu_n = N_n / D_n."""
        return Fraction(self._grown(n)[n], self._dens[n])

    def bell(self, n: int, m: int) -> Fraction:
        """B_(n,m) = A_m(n) / D_n; 0 for m > n, which grows nothing."""
        if _index(n) < _index(m):
            return Fraction(0)
        row, den = self.bell_parts(n)
        return Fraction(row[m], den)

    def bell_parts(self, n: int) -> tuple[tuple, int]:
        """The held row (A_0(n), .., A_n(n)) itself, not a copy, and D_n,
        whose quotients are B_(n,m) for m <= n."""
        if len(self._rows) <= _index(n):
            self._grow_rows(n)
        return self._rows[n], self._dens[n]

    def _grow_rows(self, n: int):
        """Append row k for k = held order + 1 .. n: row k is the sum over
        i = 1..k of w_i times row k - i shifted up one place, with w_i =
        C(k - 1, i - 1) D_k/(D_i D_(k-i)) N_i; A_0(k) = 0 for k > 0."""
        nums, rows = self._grown(n), self._rows
        for k in range(len(rows), n + 1):
            split, row = self._splits[k], [0] * (k + 1)
            for i in range(1, k + 1):
                weight = math.comb(k - 1, i - 1) * split[i] * nums[i]
                for m, a in enumerate(rows[k - i], 1):
                    row[m] += weight * a
            rows.append(tuple(row))

    def _power(self, z, order: int) -> list:
        """Beta_0 .. of z, grown through at least ``order``."""
        z = _frac(z)
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
            binom, split = [math.comb(k - 1, i) for i in range(k + 1)], self._splits[k]
            acc = 0
            for j in range(k, 0, -1):  # Horner in zd, from the top term down
                weight = (zn * binom[j - 1] - zd * binom[j]) * split[j]
                acc = acc * zd + weight * nums[j] * held[k - j]
            held.append(acc)

    def power(self, z, order: int) -> Series:
        """M^z through ``order``: b_k = Beta_k / (zd^k D_k k!)."""
        held = self._power(z, order)
        return _ordinary(held, self._dens, z.denominator, order)

    def power_parts(self, z, k: int) -> tuple[int, int]:
        """Beta_k and zd^k D_k, whose quotient is beta_k = k! [v^k] M^z; the
        caller that forms a value from them normalises once.  When z is the
        held exponent object itself and Beta_k is already held, it is read
        directly, with no type check and no growth: a table at one point
        reads its M^X1 this way at every (r, n) whose n - r is already grown.
        Any other call, a negative k among them, goes through
        :meth:`_power`."""
        held = self._zpow
        if not (z is self._z and 0 <= k < len(held)):
            held = self._power(z, k)
        return held[k], z.denominator**k * self._dens[k]


def _ordinary(exponential: list, dens: list, zd: int, order: int) -> Series:
    """The series whose coefficient of v^k is exponential[k] / (zd^k D_k k!),
    for k <= order, with D_k = ``dens[k]``, over the one denominator
    zd^order D_order order!: the weight of index k is that denominator over
    zd^k D_k k!, divided down from k = 0, since D_k | D_(k+1)."""
    den = weight = zd**order * dens[order] * math.factorial(order)
    nums = []
    for k in range(order + 1):
        nums.append(exponential[k] * weight)
        if k < order:
            weight //= zd * (k + 1) * (dens[k + 1] // dens[k])
    return Series.over(nums, den)


def mgf_table(dist: Distribution) -> MgfTable:
    """The table ``dist`` holds since it was built (see :func:`_shared_table`)."""
    return dist._table


# the table of each of the last 64 distinct laws built, keyed on the law
_shared_table = lru_cache(maxsize=64)(MgfTable)
