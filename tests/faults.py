"""Planted engine faults, each breaking one step of the engine by one term,
index or denominator (``tests/test_faults.py`` states which check catches
which), and the moment grid that catches some of them.  Most faults copy a
kernel's body and read the table's private layout, so a change to that
layout changes them here, in one place."""

import itertools
import math
from fractions import Fraction as F

import pytest

from qbernstein import distributions, padic, series
from qbernstein.audit import REGISTRY
from qbernstein.distributions import CustomMoments, Geometric, MgfTable, NegBinomial, Poisson
from qbernstein.qcalc import QPoint
from qbernstein.series import Series


def _ode_rule_one_short(cut):
    """The laws' ODE moment rule, N_k = Q0 N_j + Q1 sum over i <= j of
    C(j, i) N_i S^(j-i) - P1 sum over i < j of C(j, i) N_(i+1) S^(j-1-i) for
    j = k - 1, with the term i = j - 1 dropped from the sum that ``cut``
    ("Q1" or "P1") multiplies."""

    def rule(self, k, nums, order):
        q0, q1, p1, s = self._ode()
        j = k - 1
        low = sum(math.comb(j, i) * nums[i] * s ** (j - i)
                  for i in range(j + 1) if cut != "Q1" or i != j - 1)
        high = sum(math.comb(j, i) * nums[i + 1] * s ** (j - 1 - i)
                   for i in range(j) if cut != "P1" or i != j - 1)
        return q0 * nums[j] + q1 * low - p1 * high, s**k

    return rule


def _power_rule_off_by_one(self, order):
    """The table's Miller rule in exponential form with zd C(k, j) where
    Beta_k = sum over j of (zn C(k - 1, j - 1) - zd C(k - 1, j)) zd^(j-1)
    D_k/(D_j D_(k-j)) N_j Beta_(k-j) needs zd C(k - 1, j)."""
    nums, held, zn, zd = self._nums, self._zpow, self._z.numerator, self._z.denominator
    for k in range(len(held), order + 1):
        split = self._splits[k]
        held.append(sum(
            (zn * math.comb(k - 1, j - 1) - zd * math.comb(k, j)) * zd ** (j - 1)
            * split[j] * nums[j] * held[k - j]
            for j in range(1, k + 1)
        ))


def _bell_rule_off_by_one(self, n):
    """The table's partial Bell recurrence with C(k, i - 1) where row k =
    sum over i of C(k - 1, i - 1) D_k/(D_i D_(k-i)) N_i times row k - i
    shifted up one place needs C(k - 1, i - 1)."""
    nums, rows = self._grown(n), self._rows
    for k in range(len(rows), n + 1):
        split, row = self._splits[k], [0] * (k + 1)
        for i in range(1, k + 1):
            for m, a in enumerate(rows[k - i], 1):
                row[m] += math.comb(k, i - 1) * split[i] * nums[i] * a
        rows.append(tuple(row))


def _miller_sum_one_short(nums, den, z):
    """Series.pow's integer Miller kernel with the sum over j stopping at
    k - 1, where k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j)
    needs j = k."""
    zn, zd = z.numerator, z.denominator
    held, common = [1], 1
    for k in range(1, len(nums)):
        acc = sum(((zn + zd) * j - k * zd) * nums[j] * held[k - j] for j in range(1, k))
        common = series._extend(held, common, acc, k * zd * den)
    return series.Series.over(held, common)


_miller_power, _table_bell = series._miller_power, MgfTable.bell
_table_bell_parts = MgfTable.bell_parts
_series_mul = series.Series.__mul__


def _extend_leaving_b0(held, common, num, den):
    """series._extend scaling held[1:] when the common denominator grows by
    r, where every held numerator, b_0's too, must be scaled."""
    g = math.gcd(den, num)
    r = den // g
    held[1:] = [h * r for h in held[1:]]
    held.append(num // g)
    return common * r


def _miller_rescaled_one_short(nums, den, z):
    """Series.pow's Miller kernel, run with that append step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_extend", _extend_leaving_b0)
        return _miller_power(nums, den, z)


def _bell_read_one_short(self, n, m):
    """The table's Bell read-out B_(n,m) = A_m(n) / D_(n-1) where the rows,
    held over D_n, need A_m(n) / D_n."""
    value = _table_bell(self, n, m)
    return value * self._dens[n] / self._dens[n - 1] if 0 < m <= n else value


def _bell_parts_read_one_short(self, n):
    """MgfTable.bell_parts giving D_(n-1) where the row A_m(n) is held over
    D_n."""
    parts, den = _table_bell_parts(self, n)
    return parts, self._dens[n - 1] if n else den


def _series_mul_one_short(self, other):
    """Series.__mul__'s integer convolution with the index i stopping at
    k - 1 instead of k."""
    if not isinstance(other, series.Series):
        return _series_mul(self, other)
    a, b = self.nums, other.nums
    out = [sum(a[i] * b[k - i] for i in range(k)) for k in range(self.order + 1)]
    return series.Series.over(out, self.den * other.den)


def _series_log_one_short(self):
    """Series.log with the sum over 0 < i < k stopping at k - 2, where
    k l_k = k a_k - sum over 0 < i < k of i l_i a_(k-i) needs i = k - 1."""
    a, den = self.nums, self.den
    held, common = [0], 1
    for k in range(1, len(a)):
        acc = k * a[k] * common - sum(i * held[i] * a[k - i] for i in range(1, k - 1))
        common = series._extend(held, common, acc, k * den)
    return series.Series.over(held, common)


def _point_with_swapped_brackets(mp):
    built = QPoint.__init__

    def init(self, *args, **kwargs):
        built(self, *args, **kwargs)
        xc, x1 = self.Xc, self.X1
        object.__setattr__(self, "Xc", x1)
        object.__setattr__(self, "X1", xc)

    mp.setattr(QPoint, "__init__", init)

def _exp_one_short(self):
    """Series.exp with the sum over i = 1..k stopping at k - 1."""
    a, den = self.nums, self.den
    held, common = [1], 1
    for k in range(1, len(a)):
        acc = sum(i * a[i] * held[k - i] for i in range(1, k))
        common = series._extend(held, common, acc, k * den)
    return Series.over(held, common)


def _grown_over_d_k(self, order):
    """MgfTable._grown holding index k over the law's own d_k, where the
    kernels need D_k, a multiple of every D_i D_(k-i)."""
    nums, dens, splits = self._nums, self._dens, self._splits
    for k in range(len(nums), order + 1):
        num, den = self.dist._moment(k, nums, order)
        nums.append(num)
        dens.append(den)
        splits.append([den // (dens[i] * dens[k - i]) for i in range(k + 1)])
    return nums


# Each key names the part of the engine its fault breaks, and each setattr
# where.  "poisson-rule" and "negbinomial-rule" drop a term of the laws' ODE
# moment rule from its Q1 sum or its P1 sum: Poisson's ODE has no P1 term
# and NegBinomial's (which Geometric shares) no Q1 term, so each reaches the
# one sum its law reads.  "minus-one-rescale" breaks the table's Bell
# read-out A_m(n) / D_n both as one value and as the row over its
# denominator that P-LOG, T2.7, the Laurent route and the p-adic rows read,
# "miller-rescale" the scaling of the held b_i when the power's common
# denominator grows, and "swapped-brackets" builds every q-point with its
# brackets X1 and Xc exchanged.
FAULTS = {
    "poisson-rule": lambda mp: mp.setattr(Poisson, "_moment", _ode_rule_one_short("Q1")),
    "negbinomial-rule": lambda mp: (
        mp.setattr(NegBinomial, "_moment", _ode_rule_one_short("P1")),
        mp.setattr(Geometric, "_moment", _ode_rule_one_short("P1")),
    ),
    "extend-pow": lambda mp: mp.setattr(MgfTable, "_grow_power", _power_rule_off_by_one),
    "minus-one-table": lambda mp: mp.setattr(MgfTable, "_grow_rows", _bell_rule_off_by_one),
    "minus-one-rescale": lambda mp: (
        mp.setattr(MgfTable, "bell", _bell_read_one_short),
        mp.setattr(MgfTable, "bell_parts", _bell_parts_read_one_short),
    ),
    "miller-rescale": lambda mp: mp.setattr(series, "_miller_power", _miller_rescaled_one_short),
    "series-pow": lambda mp: mp.setattr(series, "_miller_power", _miller_sum_one_short),
    "series-mul": lambda mp: (
        mp.setattr(series.Series, "__mul__", _series_mul_one_short),
        mp.setattr(series.Series, "__rmul__", _series_mul_one_short),
    ),
    "series-log": lambda mp: mp.setattr(series.Series, "log", _series_log_one_short),
    "series-exp": lambda mp: mp.setattr(Series, "exp", _exp_one_short),
    "table-over-d-k": lambda mp: mp.setattr(MgfTable, "_grown", _grown_over_d_k),
    "swapped-brackets": _point_with_swapped_brackets,
}


def clear_caches():
    """Empty the shared tables; run_all draws new law objects, so no table
    held on a law object outlives the run that grew it."""
    distributions._shared_table.cache_clear()
    padic._rules.cache_clear()
    padic._rows.cache_clear()


# A moment-grid certificate at N = 5.  Each side of each case below is a
# polynomial in mu_1 .. mu_5 whose coefficients are isobaric, mu_i of weight i;
# each case's weight bound is given with it.  So its degree in mu_i is at most
# floor(5/i).  A polynomial of degree at most t_i in x_i that vanishes on a
# grid S_1 x .. x S_5 with |S_i| > t_i is zero (Alon, "Combinatorial
# Nullstellensatz", 1999, Lemma 2.1).  So equality on the 6 x 3 x 2 x 2 x 2
# grid of mu_i = (x + 1)/(i + 2), x = 0 .. floor(5/i), proves each identity at
# those indices for every law.
# - P-LOG corrected, order 5: [log M]_k for k <= 5 has weight k <= 5.
# - T2.2 and T2.7 corrected, (r, n) = (1, 5): each term is a P(r, j), of
#   weight j - r, times a Bell sum or [log M]_(n - j) of weight n - j, so
#   weight at most n - r = 4 (the derivative in x adds no moment).
# - T2.3 corrected, (r, n) = (1, 5): it divides by E[Y^(n - r)], which is
#   nonzero on the grid; times that moment, the lhs X^r E[Y^(n - r)] and each
#   rhs term S_Y(n - l, m) P(r, l) have weight n - r = 4.
# - T2.4 verbatim, (r, n) = (1, 5): P(r, j), of weight j - r, times the
#   coefficient n - j of 2/(M + 1) M^Xc, of weight n - j: weight n - r = 4.
# - T2.6 corrected, r = 2, order 5: coefficient k of (X v)^r / r! M^X1 has
#   weight k - r, and coefficient k of M'/M weight k + 1, so coefficient k of
#   either side, k <= 4, has weight k + 1 - r <= 3.
# - T2.8 corrected, (r, m) = (2, 2), order 5: coefficient k <= 3 of either
#   side is a multiple of coefficient k + m of (X v)^r / r! M^X1, or a sum of
#   terms of that weight, k + m - r <= 3.
GRID_N = 5
GRID_MOMENTS = list(itertools.product(*(
    [F(x + 1, i + 2) for x in range(GRID_N // i + 1)] for i in range(1, GRID_N + 1)
)))
GRID_POINT = QPoint(F(2, 5), 3, 7)
GRID_CASES = {
    ("P-LOG", "corrected"): {},
    ("T2.2", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.7", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.3", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.4", "verbatim"): {"r": 1, "n": GRID_N},
    ("T2.6", "corrected"): {"r": 2, "n": GRID_N},
    ("T2.8", "corrected"): {"r": 2, "m": 2},
}


def grid_failures() -> list:
    """The (case, law) pairs of the grid whose two sides differ, on new law
    objects, so that no table held on an earlier law is read."""
    cases = {(c.id, c.variant): c for c in REGISTRY}
    failures = []
    for mus in GRID_MOMENTS:
        law = CustomMoments((F(1), *mus))
        for key, indices in GRID_CASES.items():
            lhs, rhs = cases[key].evaluate(law, GRID_POINT, GRID_N, **indices)
            if lhs != rhs:
                failures.append((key, law))
    return failures
