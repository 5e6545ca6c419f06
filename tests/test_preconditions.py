"""The engine's exactness preconditions: a float anywhere a value enters
raises TypeError, and a negative index, a negative power, a derivative of a
constant-only series or a law given the wrong number of fields raises at
once, with its message, rather than returning an inexact or meaningless
value.  At run time, no function of the package returns a float."""

import os
import sys
from fractions import Fraction as F

import pytest

import qbernstein
from qbernstein import distributions, padic
from qbernstein.audit import run_all
from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Poisson,
    Uniform01,
    mgf_table,
)
from qbernstein.families import (
    bell_poly,
    bernstein_classical,
    frobenius_euler,
    higher_bernoulli,
    prob_bernoulli_higher,
    prob_euler,
    prob_qbernstein,
    prob_qbernstein_laurent,
)
from qbernstein.padic import carlitz_beta, fermionic, integrate_corollaries, volkenborn
from qbernstein.qcalc import QPoint, one_minus_bracket_power
from qbernstein.rings import Laurent, LogPoly, Poly, falling_factorial
from qbernstein.series import Series

LAW = Poisson(F(3, 2))
ONE = F(1)
T = Laurent({1: ONE})  # the symbol t
# the one message for a value that is not an exact scalar, up to the type's name
INEXACT = r"expected an exact scalar \(Fraction or int\), got "
NOT_AN_INT = "'float' object cannot be interpreted as an integer"

# id -> (the call, the exception it raises, a fragment of its message)
PRECONDITIONS = {
    "series-float": (lambda: Series([0.5]), TypeError, INEXACT + "float"),
    "series-pow-float": (lambda: Series([1, 1]).pow(0.5), TypeError, INEXACT + "float"),
    "laurent-float": (lambda: Laurent({0: 0.5}), TypeError, INEXACT + "float"),
    "logpoly-float": (lambda: LogPoly({0: 0.5}), TypeError, INEXACT + "float"),
    "laurent-times-float": (lambda: T * 0.5, TypeError, "unsupported operand"),
    "table-power-float": (lambda: mgf_table(LAW).power(0.5, 4), TypeError, INEXACT + "float"),
    "poisson-float": (lambda: Poisson(0.1), TypeError, INEXACT + "float"),
    "bernoulli-float": (lambda: Bernoulli(0.5), TypeError, INEXACT + "float"),
    "binomial-float": (lambda: Binomial(2, 0.5), TypeError, INEXACT + "float"),
    "constant-float": (lambda: Constant(0.3), TypeError, INEXACT + "float"),
    "custom-moments-string": (lambda: CustomMoments("12"), TypeError, INEXACT + "str"),
    "poisson-string": (lambda: Poisson("3/2"), TypeError, INEXACT + "str"),
    "qpoint-float": (lambda: QPoint(0.5, 1, 2), TypeError, INEXACT + "float"),
    "classical-float": (lambda: QPoint.classical(0.25), TypeError, INEXACT + "float"),
    "bernstein-classical-float": (
        lambda: bernstein_classical(1, 2, 0.25), TypeError, INEXACT + "float"
    ),
    "volkenborn-float": (lambda: volkenborn(T, 0.5), TypeError, INEXACT + "float"),
    "fermionic-string": (lambda: fermionic(T, "1/2"), TypeError, INEXACT + "str"),
    "integrate-corollaries-float": (
        lambda: integrate_corollaries(LAW, 0, 1, 0.5), TypeError, INEXACT + "float"
    ),
    "laurent-route-float": (
        lambda: prob_qbernstein_laurent(LAW, 0, 1, 0.5), TypeError, INEXACT + "float"
    ),
    "carlitz-beta-float": (lambda: carlitz_beta(1, 0.5), TypeError, INEXACT + "float"),
    "frobenius-euler-float": (
        lambda: frobenius_euler(2, 1, 0, 0.5), TypeError, INEXACT + "float"
    ),
    "falling-factorial-float": (lambda: falling_factorial(0.5, 2), TypeError, INEXACT + "float"),
    "poly-call-float": (lambda: Poly([1, 1])(0.5), TypeError, INEXACT + "float"),
    "qpoint-c-float": (lambda: QPoint(F(1, 2), 1.5, 2), TypeError, NOT_AN_INT),
    "qpoint-d-float": (lambda: QPoint(F(1, 2), 1, 2.0), TypeError, NOT_AN_INT),
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


def test_no_function_of_the_package_returns_a_float():
    """A profile hook over a small audit, and a table and laurent sweep over
    r <= n <= 9 for three laws, sees every return from Python code under the
    package's directory, and none is a float.  Returns from C functions are
    not seen: the hook is given no value for them.  The caches are cleared
    first, so every table and row is grown under the hook."""
    package = os.path.dirname(qbernstein.__file__) + os.sep
    returns, floats = 0, []

    def hook(frame, event, value):
        nonlocal returns
        code = frame.f_code
        if event == "return" and code.co_filename.startswith(package):
            returns += 1
            if isinstance(value, float):
                floats.append(f"{code.co_filename}:{code.co_firstlineno} {code.co_name}")

    distributions._shared_table.cache_clear()
    padic._rules.cache_clear()
    padic._rows.cache_clear()
    point, previous = QPoint(F(2, 5), 3, 7), sys.getprofile()
    sys.setprofile(hook)
    try:
        run_all(42, 2, 12)
        for law in (Poisson(F(3, 2)), Binomial(4, F(2, 5)), Uniform01()):
            for n in range(10):
                for r in range(n + 1):
                    prob_qbernstein(law, r, n, point)
                    integrate_corollaries(law, r, n, point.q)
    finally:
        sys.setprofile(previous)
    assert returns > 10_000
    assert floats == []
