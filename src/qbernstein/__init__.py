"""Exact-arithmetic toolkit for probabilistic q-Bernstein polynomials.

Everything is computed over arbitrary-precision rationals: bracket calculus
at coherent rational points, truncated power series over exact rings, moment
providers for the supported probability laws, the polynomial and special
number families defined by their generating functions, closed-form q-measure
integral operators, and an audit registry that checks a catalogue of claimed
identities by comparing independently computed sides for literal equality.
"""

from .distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Distribution,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
)
from .families import (
    bell_poly,
    bernstein_classical,
    euler_poly,
    frobenius_euler,
    higher_bernoulli,
    prob_bernoulli,
    prob_bernoulli_higher,
    prob_euler,
    prob_qbernstein,
    prob_qbernstein_gf,
    prob_qbernstein_laurent,
    prob_stirling2,
    qbernstein,
    stirling2,
)
from .padic import (
    carlitz_beta,
    fermionic,
    integrate_corollaries,
    integrate_weighted_term,
    q_euler,
    volkenborn,
)
from .qcalc import QPoint, one_minus_bracket_power
from .rings import (
    Laurent,
    LogPoly,
    Poly,
    falling_factorial,
    laurent_x_derivation,
)
from .series import Series, exp_series

__all__ = [
    "Bernoulli", "Binomial", "Constant", "CustomMoments", "Distribution",
    "Geometric", "NegBinomial", "Poisson", "Uniform01",
    "bell_poly", "bernstein_classical", "euler_poly", "frobenius_euler",
    "higher_bernoulli", "prob_bernoulli", "prob_bernoulli_higher", "prob_euler",
    "prob_qbernstein", "prob_qbernstein_gf", "prob_qbernstein_laurent",
    "prob_stirling2",
    "qbernstein", "stirling2",
    "carlitz_beta", "fermionic", "integrate_corollaries",
    "integrate_weighted_term", "q_euler", "volkenborn",
    "QPoint", "one_minus_bracket_power",
    "Laurent", "LogPoly", "Poly", "falling_factorial",
    "laurent_x_derivation",
    "Series", "exp_series",
]
