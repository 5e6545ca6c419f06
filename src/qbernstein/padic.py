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
over m <= n - r of prob_stirling2(d, n - r, m) I(r, w, m), I(r, w, m) being
those of X^r (Xc)_w (X1)_m, with X, Xc and X1 the brackets of x, of x under
the inverse base and of 1 - x in t.  They run on integer numerators over one
denominator (FLINT's ``fmpq_poly`` layout).  With q = a/b, X = b(1 - t)/(b - a),
Xc - k = (a - (a + k(b - a))t)/(t(b - a)) and X1 - k = ((b - k(b - a))t - a)/(t(b - a)),
so X^r (Xc)_w (X1)_m is r + w + m integer linear factors over
(b - a)^(r + w + m) t^(w + m).  The rule table of q states both rules once, by
t-exponent; only the basis reads R_u, the lcm of their denominators over
|b + 1| <= u.  :func:`_basis` gives the bosonic constant part and L^-1
coefficient and the fermionic value of I(r, w, m), each one integer dot product
with the table, over R_u (b - a)^(r + w + m) at u = max(r + 1, w + m - 1).
With a law's row prob_stirling2(d, k, m), m <= k, read once as integers over
their lcm (:func:`_weights`), each part of a weighted term is one integer sum.
Every cache is bounded: 16 rule tables (one per q, holding the rules read and
R_u to the largest u asked), 8192 triples I(r, w, m) and 1024 rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .distributions import Distribution
from .families import _check_indices, prob_stirling2
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


@lru_cache(maxsize=8192)
def _basis(a: int, b: int, r: int, w: int, m: int) -> tuple[int, int, int]:
    """The numerators of I(r, w, m) at q = a/b, keyed on integers, which hash fast:
    bosonic constant part and L^-1 coefficient over the bosonic R_u, fermionic value
    over the fermionic R_u, each times (b - a)^(r + w + m), u = max(r + 1, w + m - 1)."""
    poly, table, out = [1], _rules(Fraction(a, b)), [0, 0, 0]
    # each linear factor c0 + c1 t of the numerators of X, Xc - k and X1 - k
    steps = [(b, -b)] * r + [(a, a * k - b * k - a) for k in range(w)]
    for c0, c1 in steps + [(-a, b - b * k + a * k) for k in range(m)]:
        poly = [c0 * x + c1 * y for x, y in zip(poly + [0], [0] + poly)]
    rb, rf = table.level(max(r + 1, w + m - 1))
    for e, c in enumerate(poly, -w - m):
        vb, vf = table[e]
        out[e == -1] += c * vb.numerator * (rb // vb.denominator)
        out[2] += c * vf.numerator * (rf // vf.denominator)
    return tuple(out)


@lru_cache(maxsize=1024)
def _weights(d: Distribution, k: int) -> tuple[tuple, int]:
    """prob_stirling2(d, k, m) for m <= k, as integer numerators over their lcm."""
    row = [prob_stirling2(d, k, m) for m in range(k + 1)]
    den = math.lcm(*(v.denominator for v in row))
    return tuple(v.numerator * (den // v.denominator) for v in row), den


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
    table, (weights, den) = _rules(q), _weights(d, n - r)
    a, b, bos, log, ferm, dens = q.numerator, q.denominator, 0, 0, 0, (1, 1)
    for m, c in enumerate(weights):
        # Horner's rule: the sum so far moves onto the denominators of I(r, w, m)
        held, dens = dens, table.level(max(r + 1, w + m - 1))
        sb, sf = (b - a) * (dens[0] // held[0]), (b - a) * (dens[1] // held[1])
        b0, b1, b2 = _basis(a, b, r, w, m) if c else (0, 0, 0)
        bos, log, ferm = bos * sb + c * b0, log * sb + c * b1, ferm * sf + c * b2
    scale, common = math.comb(n, r), den * (b - a) ** (n + w)
    bos, log = Fraction(scale * bos, common * dens[0]), Fraction(scale * log, common * dens[0])
    ferm = Fraction(scale * ferm, common * dens[1])
    # reduced Fractions at distinct exponents: _build skips the per-coefficient check
    return LogPoly._build(((0, bos), (-1, log))), LogPoly._build(((0, ferm),))


def integrate_corollaries(
    d: Distribution, r: int, n: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the (r, n) polynomial family value in Laurent form:
    the weighted term at weight length 0."""
    return integrate_weighted_term(d, r, n, 0, q)
