"""The laws' closed-form MGFs in sympy, which shares no code with the engine,
and the check of ``mgf_oracle`` against sympy's expansion of each."""

import functools
from fractions import Fraction as F

import sympy

from qbernstein.distributions import Bernoulli, Binomial, Constant, Geometric, NegBinomial, Poisson

from oracles import mgf_oracle

v = sympy.Symbol("v")
E = sympy.exp(v)
R = sympy.Rational


def fraction(value) -> F:
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


# law and the closed form of its M, at fixed rational parameters
CLOSED_MGFS = [
    (Poisson(F(3, 2)), sympy.exp(R(3, 2) * (E - 1))),
    (Constant(F(-5, 2)), sympy.exp(R(-5, 2) * v)),
    (Binomial(3, F(1, 4)), (R(3, 4) + R(1, 4) * E) ** 3),
    (Bernoulli(F(2, 7)), R(5, 7) + R(2, 7) * E),
    (NegBinomial(2, F(2, 3)), (R(2, 3) * E / (1 - R(1, 3) * E)) ** 2),
    (Geometric(F(2, 5)), R(2, 5) * E / (1 - R(3, 5) * E)),
]


@functools.cache
def expansion(mgf, order: int) -> tuple:
    """The coefficients of v^0 .. v^order in sympy's expansion of ``mgf``,
    expanded once."""
    expansion = sympy.series(mgf, v, 0, order + 1).removeO()
    return tuple(fraction(expansion.coeff(v, k)) for k in range(order + 1))


def mgf_oracle_misses(law, mgf) -> list:
    """The coefficients k, as (k, the oracle's, sympy's), at which the test
    oracle's M, built from exp, products and (for the geometric and negative
    binomial laws) ``Series.recip``, is not sympy's expansion of ``mgf``."""
    order = 5 if law.name == "poisson" else 8  # exp(exp) is slow to expand
    pairs = zip(mgf_oracle(law, order).coeffs, expansion(mgf, order), strict=True)
    return [(k, ours, theirs) for k, (ours, theirs) in enumerate(pairs) if ours != theirs]
