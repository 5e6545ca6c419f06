"""Bosonic and fermionic q-measure integrals as closed-form linear operators
on Laurent polynomials in t.

The underlying limit definitions (weighted Riemann sums over an ultrametric
ring, normalized by a q-bracket of the block count) collapse on the monomial
basis to fixed rational rules, with one formal-logarithm term in the bosonic
case:

  bosonic    t^b -> (b + 1)(q - 1)/(q^(b+1) - 1)   for b != -1
             t^-1 -> (q - 1) / L
  fermionic  t^b -> (1 + q)/(1 + q^(b+1))          for every integer b

The prime of the limit construction never appears here; it lives only in the
test-suite oracle that re-derives these rules from truncated sums by watching
the ultrametric valuation of the difference grow.

The integrals of the polynomial family go through a basis that depends on q
alone: those of (Xc)_w times the value at (r, n) are binom(n, r) times the sum
over m <= k = n - r of prob_stirling2(d, k, m) I(r, w, m), I(r, w, m) being
those of X^r (Xc)_w (X1)_m, with X, Xc and X1 the brackets of x, of x under
the inverse base and of 1 - x in t.  They run on integer numerators over one
denominator (FLINT's ``fmpq_poly`` layout).  With q = a/b, X = b(1 - t)/(b - a),
Xc - k = (a - (a + k(b - a))t)/(t(b - a)) and X1 - k = ((b - k(b - a))t - a)/(t(b - a)),
so X^r (Xc)_w (X1)_m is r + w + m integer linear factors over
(b - a)^(r + w + m) t^(w + m).  The rule table of q states both rules once, by
t-exponent; only the basis reads R_u, the lcm of their denominators over
|b + 1| <= u.  A row (:class:`_Row`) holds, for one (q, r, w), the numerator
polynomial at the largest M asked for so far and I(r, w, m) for every m <= M:
the bosonic constant parts, the L^-1 coefficients and the fermionic values,
three integer lists, each side over (b - a)^(r + w + M) R_u(M) at
u = max(r + 1, w + M - 1).  Growing to M + 1 multiplies the polynomial by one
factor of X1, carries the held entries to the new denominator, and appends one
dot product of the polynomial with the table.  A result at k <= M is a prefix,
so a call reads the row as it is, takes the law's partial Bell integers
A_m(k) over c^k (``MgfTable.bell_parts``), and forms each part from one
integer dot product.  Every cache is bounded: 16 rule tables (one per q,
holding the rules read and R_u to the largest u asked) and 1024 rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .distributions import Distribution, mgf_table
from .families import _check_indices
from .qcalc import _check_q, bracket_in_t
from .rings import Laurent, LogPoly


class _RuleTable(dict):
    """The rules at one q: ``self[b]``, stated on first read, is the pair of rules of t^b
    (bosonic: for t^-1, the L^-1 coefficient); ``level(u)`` gives R_u for the basis."""

    def __init__(self, q: Fraction):
        self.q, self._levels = q, [(1, 1)]  # _levels[u + 1] is R_u

    def __missing__(self, b: int) -> tuple[Fraction, Fraction]:
        q, s = self.q, b + 1
        self[b] = rule = (s * (q - 1) / (q**s - 1) if s else q - 1), (1 + q) / (1 + q**s)
        return rule

    def level(self, u: int) -> tuple[int, int]:
        levels = self._levels
        while len(levels) <= u + 1:
            s = len(levels) - 1  # the level adds t^(s - 1) and t^(-s - 1)
            new = zip(self[s - 1], self[-s - 1], levels[-1])
            levels.append(tuple(math.lcm(h, x.denominator, y.denominator) for x, y, h in new))
        return levels[u + 1]


_rules = lru_cache(maxsize=16)(_RuleTable)


def _integral(f: Laurent, q: Fraction, side: int) -> LogPoly:
    """Each term of ``f`` times its rule of ``side`` (0 bosonic, 1 fermionic), one LogPoly."""
    table = _rules(_check_q(q))
    return LogPoly([
        (e - (side == 0 and b == -1), v * table[b][side])
        for b, c in f.terms.items()
        for e, v in (c.terms.items() if isinstance(c, LogPoly) else ((0, c),))
    ])


def volkenborn(f: Laurent, q: Fraction) -> LogPoly:
    """Bosonic integral of a Laurent polynomial in t; value in LogPoly."""
    return _integral(f, q, 0)


def fermionic(f: Laurent, q: Fraction) -> LogPoly:
    """Fermionic integral of a Laurent polynomial in t; always log-free."""
    return _integral(f, q, 1)


def carlitz_beta(r: int, q: Fraction) -> LogPoly:
    """Bosonic integral of the r-th power of the bracket of x."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return volkenborn(bracket_in_t(q) ** r, q)


def q_euler(r: int, q: Fraction) -> LogPoly:
    """Fermionic integral of the r-th power of the bracket of x."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return fermionic(bracket_in_t(q) ** r, q)


class _Row:
    """I(r, w, m) at q = a/b for every m <= M, grown on demand: the integer
    numerator polynomial of X^r (Xc)_w (X1)_M in t (coefficient i of t^(i - w - M)),
    and ``parts``, the bosonic constant parts, the L^-1 coefficients and the
    fermionic values, over ``dens``, (b - a)^(r + w + M) R_u(M) for each side."""

    __slots__ = ("key", "poly", "levels", "dens", "parts")

    def __init__(self, a: int, b: int, r: int, w: int):
        self.key, poly = (a, b, r, w), [1]
        # each linear factor c0 + c1 t of the numerators of X and Xc - k
        for c0, c1 in [(b, -b)] * r + [(a, a * k - b * k - a) for k in range(w)]:
            poly = [c0 * x + c1 * y for x, y in zip(poly + [0], [0] + poly)]
        self.poly, self.levels, self.dens = poly, (1, 1), ((b - a) ** (r + w),) * 2
        self.parts = [], [], []  # empty until the first growth, to M = 0

    def grow(self, k: int, table: _RuleTable) -> None:
        """Append I(r, w, m) for m = M + 1 .. k, with ``table`` the rules of q.
        From M to M + 1 the polynomial takes the factor of X1 - M, the held parts
        move onto the new denominators (times (b - a) R_u(M + 1)/R_u(M), as
        ``MgfTable._rescale`` carries its rows), and the new parts are one dot
        product of the polynomial with the rule table."""
        a, b, r, w = self.key
        poly, (bos, log, ferm) = self.poly, self.parts
        for m in range(len(ferm), k + 1):
            step = 1
            if m:  # the numerator of X1 - (m - 1), -a + (b - (b - a)(m - 1)) t
                step, c1 = b - a, b - (b - a) * (m - 1)
                poly = self.poly = [c1 * y - a * x for x, y in zip(poly + [0], [0] + poly)]
            (rb, rf), (hb, hf) = table.level(max(r + 1, w + m - 1)), self.levels
            sb, sf = step * (rb // hb), step * (rf // hf)
            for held, s in ((bos, sb), (log, sb), (ferm, sf)):
                held[:] = [x * s for x in held]
            self.levels, self.dens = (rb, rf), (self.dens[0] * sb, self.dens[1] * sf)
            out = [0, 0, 0]
            for e, c in enumerate(poly, -w - m):
                vb, vf = table[e]
                out[e == -1] += c * vb.numerator * (rb // vb.denominator)
                out[2] += c * vf.numerator * (rf // vf.denominator)
            for held, x in zip(self.parts, out):
                held.append(x)


_rows = lru_cache(maxsize=1024)(_Row)


def integrate_weighted_term(
    d: Distribution, r: int, n: int, w: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the falling factorial of the inverse-base bracket
    (length w) times the (r, n) polynomial family value, all in Laurent form:
    binom(n, r) times the sum over m of prob_stirling2(d, n - r, m) I(r, w, m)."""
    _check_indices(r, n)
    q = _check_q(q)
    if w < 0:
        raise ValueError("falling factorial needs m >= 0")
    k, row = n - r, _rows(q.numerator, q.denominator, r, w)
    if len(row.parts[2]) <= k:
        row.grow(k, _rules(q))
    weights, ck = mgf_table(d).bell_parts(k)
    bos, log, ferm = (sum(map(operator.mul, weights, held)) for held in row.parts)
    scale, (db, df) = math.comb(n, r), row.dens
    bos, log = Fraction(scale * bos, ck * db), Fraction(scale * log, ck * db)
    ferm = Fraction(scale * ferm, ck * df)
    # reduced Fractions at distinct exponents: _build skips the per-coefficient check
    return LogPoly._build(((0, bos), (-1, log))), LogPoly._build(((0, ferm),))


def integrate_corollaries(
    d: Distribution, r: int, n: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the (r, n) polynomial family value in Laurent form:
    the weighted term at weight length 0."""
    return integrate_weighted_term(d, r, n, 0, q)
