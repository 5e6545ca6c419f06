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
alone.  With X, Xc and X1 the brackets of x, of x under the inverse base and
of 1 - x, all written in t, the family value at (r, n) is binom(n, r) X^r
times the sum over m <= n - r of (X1)_m prob_stirling2(d, n - r, m).  Both
operators are linear, so the integral of (Xc)_w times that value is

  binom(n, r) * sum over m of prob_stirling2(d, n - r, m) * I(r, w, m),

with I(r, w, m) the pair of integrals of X^r (Xc)_w (X1)_m, shared by every
law.  Each q keeps the powers X^r and the falling factorials (Xc)_w and
(X1)_m it has built, each grown by one factor from the one before; the
factors of at most 16 values of q are held, and at most 8192 pairs
I(r, w, m) over all q (every r + m <= 126 at one weight and one q).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .distributions import Distribution
from .families import _check_indices, prob_stirling2
from .qcalc import _check_q, bracket_in_t, conjugate_bracket_in_t, one_minus_conjugate_in_t
from .rings import Laurent, LogPoly


def volkenborn(f: Laurent, q: Fraction) -> LogPoly:
    """Bosonic integral of a Laurent polynomial in t; value in LogPoly."""
    q = _check_q(q)
    out = LogPoly()
    for b, c in sorted(f.terms.items()):
        rule = LogPoly({-1: q - 1}) if b == -1 else (b + 1) * (q - 1) / (q ** (b + 1) - 1)
        out = out + rule * c
    return out


def fermionic(f: Laurent, q: Fraction) -> LogPoly:
    """Fermionic integral of a Laurent polynomial in t; always log-free."""
    q = _check_q(q)
    return sum(
        ((1 + q) / (1 + q ** (b + 1)) * c for b, c in sorted(f.terms.items())), LogPoly()
    )


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


class _Products:
    """The products p_0 = 1 and p_(k+1) = p_k * step(k), each built once,
    from the one before."""

    def __init__(self, step):
        self._held = [Laurent({0: 1})]
        self._step = step

    def __getitem__(self, k: int) -> Laurent:
        held = self._held
        while len(held) <= k:
            held.append(held[-1] * self._step(len(held) - 1))
        return held[k]


@lru_cache(maxsize=16)
def _factors(q: Fraction) -> tuple[_Products, _Products, _Products]:
    """X^r, (Xc)_w and (X1)_m at ``q``, indexed by r, w and m."""
    x, conj, one_minus = bracket_in_t(q), conjugate_bracket_in_t(q), one_minus_conjugate_in_t(q)
    return _Products(lambda k: x), _Products(lambda k: conj - k), _Products(lambda k: one_minus - k)


@lru_cache(maxsize=8192)
def _basis(q: Fraction, r: int, w: int, m: int) -> tuple[LogPoly, LogPoly]:
    """Both integrals of X^r (Xc)_w (X1)_m."""
    powers, conj_falling, one_minus_falling = _factors(q)
    integrand = powers[r] * conj_falling[w] * one_minus_falling[m]
    return volkenborn(integrand, q), fermionic(integrand, q)


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
    k, scale = n - r, math.comb(n, r)
    # The weighted terms of every m, summed once when the LogPoly is built.
    bos, ferm = [], []
    for m in range(k + 1):
        weight = scale * prob_stirling2(d, k, m)
        if weight:
            b, f = _basis(q, r, w, m)
            bos += [(e, c * weight) for e, c in b.terms.items()]
            ferm += [(e, c * weight) for e, c in f.terms.items()]
    return LogPoly(bos), LogPoly(ferm)


def integrate_corollaries(
    d: Distribution, r: int, n: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the (r, n) polynomial family value in Laurent form:
    the weighted term at weight length 0."""
    return integrate_weighted_term(d, r, n, 0, q)
