"""Planted engine faults, each breaking one step of the engine by one term,
index or denominator (``tests/test_faults.py`` states which check catches
which), and the moment grid that catches some of them.  Each fault is one
text edit of the engine's own source, so a rewritten kernel is planted as it
now reads, and an edit whose text the kernel no longer holds fails by name."""

import __future__
import inspect
import itertools
import textwrap
from fractions import Fraction as F

from qbernstein import audit, distributions, families, padic, series
from qbernstein.audit import REGISTRY
from qbernstein.distributions import CustomMoments, Distribution, MgfTable, NegBinomial, Poisson
from qbernstein.qcalc import QPoint
from qbernstein.series import Series


def plant(mp, owners, function, old, new):
    """Set ``function``, with the one occurrence of ``old`` in its source
    replaced by ``new``, on each of ``owners`` through ``mp``.  It is built in
    a fresh namespace over the module's globals, so the engine's own function
    is left as it is and a name patched in the module is read as patched."""
    source = textwrap.dedent(inspect.getsource(function))
    count = source.count(old)
    assert count == 1, f"{function.__qualname__} holds {old!r} {count} times"
    lines = "\n" * (function.__code__.co_firstlineno - 1)  # tracebacks keep the engine's lines
    code = compile(lines + source.replace(old, new), function.__code__.co_filename, "exec",
                   __future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, function.__globals__, scope)
    for owner in owners:
        mp.setattr(owner, function.__name__, scope[function.__name__])


# Each key names the part of the engine its fault breaks, and each row states
# where the fault is set, the engine function, and the (old, new) edit of its
# source.  "poisson-rule" and "negbinomial-rule" drop the term i = j - 1 of
# the laws' ODE moment rule from its Q1 sum or its P1 sum: Poisson's ODE has
# no P1 term and NegBinomial's (which Geometric inherits) no Q1 term, so each
# reaches the one sum its law reads.  "minus-one-rescale" gives the table's
# Bell row over D_(n-1) where it is held over D_n, which every Bell reader
# (P-LOG, T2.7, the Laurent route, the p-adic rows) reads; "miller-rescale"
# scales the held numerators but b_0 when a common denominator grows, in
# every kernel that appends through ``series._extend``; "swapped-brackets"
# builds every q-point with its brackets X1 and Xc exchanged;
# "euler-prefactor" gives prob_euler the prefactor 2/(M^2 + 1), set also in
# the audit, which reads the name as imported; and the two
# p-adic rows put one too many in the bosonic rule's numerator and one too
# many in the fermionic rule's power of q.
FAULTS = {
    "poisson-rule": ((Poisson,), Distribution._moment,
                     "low = low * s + b * nums[i]", "low = low * s + b * nums[i] * (i < j - 1)"),
    "negbinomial-rule": ((NegBinomial,), Distribution._moment,
                         "b * nums[i + 1]", "b * nums[i + 1] * (i < j - 1)"),
    "extend-pow": ((MgfTable,), MgfTable._grow_power, "zd * binom[j]", "zd * math.comb(k, j)"),
    "minus-one-table": ((MgfTable,), MgfTable._grow_rows,
                        "math.comb(k - 1, i - 1)", "math.comb(k, i - 1)"),
    "minus-one-rescale": ((MgfTable,), MgfTable.bell_parts,
                          "self._dens[n]", "self._dens[max(n - 1, 0)]"),
    "miller-rescale": ((series,), series._extend,
                       "held[:] = [h * r for h in held]", "held[1:] = [h * r for h in held[1:]]"),
    "series-pow": ((series,), series._miller_power, "rev = held[::-1]", "rev = held[:0:-1]"),
    "series-mul": ((Series,), Series.__mul__, "a[: k + 1]", "a[:k]"),
    "series-log": ((Series,), Series.log, "tail = held[1:k]", "tail = held[1 : k - 1]"),
    "series-exp": ((Series,), Series.exp, "slopes[1 : k + 1]", "slopes[1:k]"),
    "table-over-d-k": ((MgfTable,), MgfTable._grown,
                       "dens.append(math.lcm(den, *products))", "dens.append(den)"),
    "swapped-brackets": ((QPoint,), QPoint.__init__, "x, xc, x1, t", "x, x1, xc, t"),
    "euler-prefactor": ((families, audit), families.prob_euler,
                        "(m_series + 1)", "(m_series * m_series + 1)"),
    "padic-bosonic-rule": ((padic._RuleTable,), padic._RuleTable.__missing__,
                           "s * (q - 1)", "(s + 1) * (q - 1)"),
    "padic-fermionic-rule": ((padic._RuleTable,), padic._RuleTable.__missing__,
                             "(1 + q**s)", "(1 + q**(s + 1))"),
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
