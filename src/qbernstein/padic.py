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
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import Distribution
from .families import prob_qbernstein_laurent
from .qcalc import _check_q, bracket_in_t, conjugate_bracket_in_t
from .rings import Laurent, LogPoly, falling_factorial


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


def integrate_corollaries(
    d: Distribution, r: int, n: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the (r, n) polynomial family value in Laurent form."""
    integrand = prob_qbernstein_laurent(d, r, n, q)
    return volkenborn(integrand, q), fermionic(integrand, q)


def integrate_weighted_term(
    d: Distribution, r: int, l: int, m: int, q: Fraction
) -> tuple[LogPoly, LogPoly]:
    """Both integrals of the falling factorial of the inverse-base bracket
    (length m) times the (r, l) polynomial family value, all in Laurent form."""
    weight = falling_factorial(conjugate_bracket_in_t(q), m)
    integrand = weight * prob_qbernstein_laurent(d, r, l, q)
    return volkenborn(integrand, q), fermionic(integrand, q)


def shift_x(f: Laurent, q: Fraction) -> Laurent:
    """Substitute x -> x + 1, i.e. t^b -> q^b t^b termwise."""
    q = _check_q(q)
    return Laurent({b: c * q**b for b, c in f.terms.items()})
