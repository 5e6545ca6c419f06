"""The engine's exactness preconditions: a float anywhere a value enters
raises TypeError, and a negative index, a negative power, a derivative of a
constant-only series or a law given the wrong number of fields raises at
once, with its message, rather than returning an inexact or meaningless
value."""

from fractions import Fraction as F

import pytest

from qbernstein.distributions import Binomial, Poisson, mgf_table
from qbernstein.families import (
    bell_poly,
    frobenius_euler,
    higher_bernoulli,
    prob_bernoulli_higher,
    prob_euler,
)
from qbernstein.padic import carlitz_beta
from qbernstein.qcalc import QPoint, one_minus_bracket_power
from qbernstein.rings import Laurent, LogPoly
from qbernstein.series import Series

LAW = Poisson(F(3, 2))
ONE = F(1)

# id -> (the call, the exception it raises, a fragment of its message)
PRECONDITIONS = {
    "series-float": (lambda: Series([0.5]), TypeError, "must be Fraction or int"),
    "series-pow-float": (lambda: Series([1, 1]).pow(0.5), TypeError, "must be Fraction or int"),
    "laurent-float": (lambda: Laurent({0: 0.5}), TypeError, "must be Fraction or LogPoly"),
    "logpoly-float": (lambda: LogPoly({0: 0.5}), TypeError, "exact scalar, got float"),
    "table-power-float": (
        lambda: mgf_table(LAW).power(0.5, 4), TypeError, "Fraction or int exponent"
    ),
    "bell-poly": (lambda: bell_poly(-1, ONE), ValueError, "nonnegative"),
    "higher-bernoulli": (lambda: higher_bernoulli(-1, ONE, ONE), ValueError, "nonnegative"),
    "frobenius-euler": (
        lambda: frobenius_euler(-1, ONE, ONE, F(2)), ValueError, "nonnegative"
    ),
    "prob-bernoulli-higher": (
        lambda: prob_bernoulli_higher(LAW, -1, 0, ONE), ValueError, "nonnegative"
    ),
    "prob-euler": (lambda: prob_euler(LAW, -1, ONE), ValueError, "nonnegative"),
    "carlitz-beta": (lambda: carlitz_beta(-1, F(2)), ValueError, "nonnegative"),
    "moment": (lambda: LAW.moment(-1), ValueError, "moment index must be nonnegative"),
    "egf-coeff": (
        lambda: Series([1, 1]).egf_coeff(-1), ValueError, "index must be nonnegative"
    ),
    "one-minus-bracket-power": (
        lambda: one_minus_bracket_power(QPoint(F(2, 3), 1, 2), -1),
        ValueError, "power must be nonnegative",
    ),
    "laurent-negative-power": (
        lambda: Laurent({1: ONE}) ** -1, ValueError, "powers must be nonnegative"
    ),
    "derive-order-0": (lambda: Series([1]).derive(), ValueError, "order 0"),
    "law-too-few-fields": (
        lambda: Binomial(F(1, 2)), TypeError, r"Binomial takes the fields \('trials', 'p1'\)"
    ),
    "law-too-many-fields": (
        lambda: Poisson(ONE, F(2)), TypeError, r"Poisson takes the fields \('alpha',\)"
    ),
}


@pytest.mark.parametrize("name", PRECONDITIONS)
def test_precondition_raises(name):
    call, error, message = PRECONDITIONS[name]
    with pytest.raises(error, match=message):
        call()
