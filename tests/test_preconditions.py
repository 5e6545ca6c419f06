"""The engine's exactness preconditions: a float anywhere a value enters
raises TypeError, and a negative index, a derivative of a constant-only
series or a law given the wrong number of fields raises at once, with its
message, rather than returning an inexact or meaningless value.  At run time,
no function of the package returns a float.

An index is what a family, a series or a table is indexed or truncated by,
or a power of a ring element: an integer, which ``operator.index`` accepts (a
bool is its int), that is not negative.  Every entry point passes it through
``rings._index``, so a value that is not an integer raises Python's own
TypeError ("'float' object cannot be interpreted as an integer"), and a
negative one ValueError("expected a nonnegative index, got <value>").  A
count, a law's trials or successes, a point's d or an audit's trials, passes
``rings._count``, an index that is at least 1, and 0 raises
ValueError("expected a positive count, got 0").  A base, a point's rho or a q, passes
``qcalc._check_q``, and an exact one that is not a positive rational other
than 1 raises ValueError("expected a base (a positive rational other than 1),
got <value>")."""

import os
import sys
from fractions import Fraction as F

import pytest

import qbernstein
from qbernstein import distributions, families, padic
from qbernstein.audit import run_all
from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    NegBinomial,
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
    prob_qbernstein_gf,
    prob_qbernstein_laurent,
    prob_stirling2,
    stirling2,
)
from qbernstein.padic import (
    carlitz_beta,
    fermionic,
    integrate_corollaries,
    integrate_weighted_term,
    q_euler,
    volkenborn,
)
from qbernstein.qcalc import QPoint, bracket_in_t, one_minus_bracket_power
from qbernstein.rings import Laurent, LogPoly, Poly, falling_factorial
from qbernstein.series import Series, exp_series

LAW = Poisson(F(3, 2))
ONE = F(1)
T = Laurent({1: ONE})  # the symbol t
POINT = QPoint(F(2, 3), 1, 2)
# the one message for a value that is not an exact scalar, up to the type's name
INEXACT = r"expected an exact scalar \(Fraction or int\), got "
NOT_AN_INT = "'float' object cannot be interpreted as an integer"
# the one message for a negative index, up to the value
NEGATIVE = "expected a nonnegative index, got "
# the one message for an exact scalar that is not a base, up to the value
NOT_A_BASE = r"expected a base \(a positive rational other than 1\), got "
# the one message for a count of 0
ZERO_COUNT = "^expected a positive count, got 0$"

# id -> (the call, the exception it raises, a fragment of its message)
PRECONDITIONS = {
    "series-float": (lambda: Series([0.5]), TypeError, INEXACT + "float"),
    "series-pow-float": (lambda: Series([1, 1]).pow(0.5), TypeError, INEXACT + "float"),
    "laurent-float": (lambda: Laurent({0: 0.5}), TypeError, INEXACT + "float"),
    "logpoly-float": (lambda: LogPoly({0: 0.5}), TypeError, INEXACT + "float"),
    "laurent-exponent-float": (lambda: Laurent({1.5: ONE}), TypeError, NOT_AN_INT),
    "laurent-exponent-string": (
        lambda: Laurent({"2": ONE}), TypeError, "'str' object cannot be interpreted as an integer"
    ),
    "laurent-times-float": (lambda: T * 0.5, TypeError, "unsupported operand"),
    "table-power-float": (lambda: mgf_table(LAW).power(0.5, 4), TypeError, INEXACT + "float"),
    "poisson-float": (lambda: Poisson(0.1), TypeError, INEXACT + "float"),
    "bernoulli-float": (lambda: Bernoulli(0.5), TypeError, INEXACT + "float"),
    "binomial-float": (lambda: Binomial(2, 0.5), TypeError, INEXACT + "float"),
    "constant-float": (lambda: Constant(0.3), TypeError, INEXACT + "float"),
    "custom-moments-string": (lambda: CustomMoments("12"), TypeError, INEXACT + "str"),
    "poisson-string": (lambda: Poisson("3/2"), TypeError, INEXACT + "str"),
    "qpoint-float": (lambda: QPoint(0.5, 1, 2), TypeError, INEXACT + "float"),
    # a base at each entry point: a point's rho, a bracket's q, a classical q and an integral's q
    "qpoint-rho-one": (lambda: QPoint(ONE, 1, 2), ValueError, NOT_A_BASE + "1"),
    "qpoint-rho-zero": (lambda: QPoint(F(0), 1, 2), ValueError, NOT_A_BASE + "0"),
    "qpoint-rho-negative": (lambda: QPoint(F(-1, 2), 1, 2), ValueError, NOT_A_BASE + "-1/2"),
    "bracket-in-t-one": (lambda: bracket_in_t(ONE), ValueError, NOT_A_BASE + "1"),
    "one-minus-bracket-power-classical": (
        lambda: one_minus_bracket_power(QPoint.classical(F(1, 3)), 2), ValueError,
        NOT_A_BASE + "1",
    ),
    "volkenborn-negative-q": (
        lambda: volkenborn(Laurent({0: 1}), F(-2)), ValueError, NOT_A_BASE + "-2"
    ),
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
    "higher-bernoulli-order-string": (
        lambda: higher_bernoulli(3, "1", 0), TypeError, INEXACT + "str"
    ),
    "frobenius-euler-order-string": (
        lambda: frobenius_euler(2, "1", 0, F(2)), TypeError, INEXACT + "str"
    ),
    "binomial-trials-float": (lambda: Binomial(2.0, F(1, 2)), TypeError, NOT_AN_INT),
    "negbinomial-successes-fraction": (
        lambda: NegBinomial(F(3, 2), F(1, 2)), TypeError,
        "'Fraction' object cannot be interpreted as an integer",
    ),
    "binomial-trials-negative": (lambda: Binomial(-1, F(1, 2)), ValueError, NEGATIVE + "-1"),
    # a count at each entry point: a law's trials or successes, a point's d, an audit's trials
    "binomial-trials-zero": (lambda: Binomial(0, F(1, 2)), ValueError, ZERO_COUNT),
    "negbinomial-successes-zero": (lambda: NegBinomial(0, F(1, 2)), ValueError, ZERO_COUNT),
    "qpoint-d-zero": (lambda: QPoint(F(1, 2), 1, 0), ValueError, ZERO_COUNT),
    "qpoint-d-negative": (lambda: QPoint(F(1, 2), 1, -1), ValueError, f"^{NEGATIVE}-1$"),
    "qpoint-rho-before-d": (lambda: QPoint(ONE, 1, 0), ValueError, NOT_A_BASE + "1$"),
    "run-all-trials-zero": (lambda: run_all(seed=1, trials=0, order=9), ValueError, ZERO_COUNT),
    "poisson-alpha-zero": (
        lambda: Poisson(0), ValueError, "^expected a positive rational, got 0$"
    ),
    # an index at each public entry point: negative, then a float
    "series-truncate(-2)": (
        lambda: Series([1, 2, 3, 4]).truncate(-2), ValueError, NEGATIVE + "-2"
    ),
    "series-truncate-float": (lambda: Series([1, 2, 3]).truncate(1.0), TypeError, NOT_AN_INT),
    "series-zero-negative": (lambda: Series.zero(-1), ValueError, NEGATIVE + "-1"),
    "series-zero-float": (lambda: Series.zero(2.0), TypeError, NOT_AN_INT),
    "egf-coeff": (lambda: Series([1, 1]).egf_coeff(-1), ValueError, NEGATIVE + "-1"),
    "egf-coeff-float": (lambda: Series([1, 1]).egf_coeff(1.0), TypeError, NOT_AN_INT),
    "exp-series-negative": (lambda: exp_series(2, -1), ValueError, NEGATIVE + "-1"),
    "exp-series-float": (lambda: exp_series(2, 3.0), TypeError, NOT_AN_INT),
    "falling-factorial-negative": (
        lambda: falling_factorial(5, -1), ValueError, NEGATIVE + "-1"
    ),
    "falling-factorial-index-float": (
        lambda: falling_factorial(5, 2.0), TypeError, NOT_AN_INT
    ),
    "laurent-negative-power": (lambda: T**-1, ValueError, NEGATIVE + "-1"),
    "laurent-float-power": (lambda: T**2.0, TypeError, NOT_AN_INT),
    "table-bell-negative": (lambda: mgf_table(LAW).bell(-1, 0), ValueError, NEGATIVE + "-1"),
    "table-bell-m-negative": (lambda: mgf_table(LAW).bell(2, -1), ValueError, NEGATIVE + "-1"),
    "table-bell-float": (lambda: mgf_table(LAW).bell(2.0, 1), TypeError, NOT_AN_INT),
    "table-bell-parts-negative": (
        lambda: mgf_table(LAW).bell_parts(-1), ValueError, NEGATIVE + "-1"
    ),
    "table-bell-parts-float": (lambda: mgf_table(LAW).bell_parts(2.0), TypeError, NOT_AN_INT),
    "moment": (lambda: LAW.moment(-1), ValueError, NEGATIVE + "-1"),
    "moment-float": (lambda: LAW.moment(2.0), TypeError, NOT_AN_INT),
    "mgf-series-negative": (lambda: LAW.mgf_series(-1), ValueError, NEGATIVE + "-1"),
    "mgf-series-float": (lambda: LAW.mgf_series(3.0), TypeError, NOT_AN_INT),
    "stirling2-negative": (lambda: stirling2(-1, 0), ValueError, NEGATIVE + "-1"),
    "stirling2-float": (lambda: stirling2(3.0, 1), TypeError, NOT_AN_INT),
    "prob-stirling2-negative": (
        lambda: prob_stirling2(LAW, 2, -1), ValueError, NEGATIVE + "-1"
    ),
    "prob-stirling2-float": (lambda: prob_stirling2(LAW, 3, 1.0), TypeError, NOT_AN_INT),
    "bell-poly": (lambda: bell_poly(-1, ONE), ValueError, NEGATIVE + "-1"),
    "bell-poly-float": (lambda: bell_poly(2.0, ONE), TypeError, NOT_AN_INT),
    "higher-bernoulli": (lambda: higher_bernoulli(-1, ONE, ONE), ValueError, NEGATIVE + "-1"),
    "higher-bernoulli-index-float": (
        lambda: higher_bernoulli(2.0, ONE, ONE), TypeError, NOT_AN_INT
    ),
    "frobenius-euler": (
        lambda: frobenius_euler(-1, ONE, ONE, F(2)), ValueError, NEGATIVE + "-1"
    ),
    "frobenius-euler-index-float": (
        lambda: frobenius_euler(2.0, ONE, ONE, F(2)), TypeError, NOT_AN_INT
    ),
    "prob-bernoulli-higher": (
        lambda: prob_bernoulli_higher(LAW, -1, 0, ONE), ValueError, NEGATIVE + "-1"
    ),
    "prob-bernoulli-higher-r-negative": (
        lambda: prob_bernoulli_higher(LAW, 2, -1, ONE), ValueError, NEGATIVE + "-1"
    ),
    "prob-bernoulli-higher-n-float": (
        lambda: prob_bernoulli_higher(LAW, 2.0, 1, ONE), TypeError, NOT_AN_INT
    ),
    "prob-bernoulli-higher-r-float": (
        lambda: prob_bernoulli_higher(LAW, 2, 1.0, ONE), TypeError, NOT_AN_INT
    ),
    "prob-euler": (lambda: prob_euler(LAW, -1, ONE), ValueError, NEGATIVE + "-1"),
    "prob-euler-float": (lambda: prob_euler(LAW, 2.0, ONE), TypeError, NOT_AN_INT),
    "qbernstein-negative": (
        lambda: families.qbernstein(-1, 2, POINT), ValueError, NEGATIVE + "-1"
    ),
    "qbernstein-float": (lambda: families.qbernstein(1, 2.0, POINT), TypeError, NOT_AN_INT),
    "prob-qbernstein-r-negative": (
        lambda: prob_qbernstein(LAW, -1, 2, POINT), ValueError, NEGATIVE + "-1"
    ),
    "prob-qbernstein-n-negative": (
        lambda: prob_qbernstein(LAW, 0, -1, POINT), ValueError, NEGATIVE + "-1"
    ),
    "prob-qbernstein-r-float": (
        lambda: prob_qbernstein(LAW, 1.0, 2, POINT), TypeError, NOT_AN_INT
    ),
    "prob-qbernstein-n-float": (
        lambda: prob_qbernstein(LAW, 1, 2.0, POINT), TypeError, NOT_AN_INT
    ),
    "prob-qbernstein-gf-r-negative": (
        lambda: prob_qbernstein_gf(LAW, -1, POINT, 4), ValueError, NEGATIVE + "-1"
    ),
    "prob-qbernstein-gf-order-negative": (
        lambda: prob_qbernstein_gf(LAW, 0, POINT, -1), ValueError, NEGATIVE + "-1"
    ),
    "prob-qbernstein-gf-r-float": (
        lambda: prob_qbernstein_gf(LAW, 1.0, POINT, 4), TypeError, NOT_AN_INT
    ),
    "prob-qbernstein-gf-order-float": (
        lambda: prob_qbernstein_gf(LAW, 1, POINT, 4.0), TypeError, NOT_AN_INT
    ),
    "prob-qbernstein-laurent-negative": (
        lambda: prob_qbernstein_laurent(LAW, -1, 2, F(2)), ValueError, NEGATIVE + "-1"
    ),
    "prob-qbernstein-laurent-float": (
        lambda: prob_qbernstein_laurent(LAW, 1, 2.0, F(2)), TypeError, NOT_AN_INT
    ),
    "integrate-weighted-term-w-negative": (
        lambda: integrate_weighted_term(LAW, 0, 2, -1, F(3, 2)), ValueError, NEGATIVE + "-1"
    ),
    "integrate-weighted-term-w-float": (
        lambda: integrate_weighted_term(LAW, 0, 2, 1.0, F(3, 2)), TypeError, NOT_AN_INT
    ),
    "carlitz-beta": (lambda: carlitz_beta(-1, F(2)), ValueError, NEGATIVE + "-1"),
    "carlitz-beta-index-float": (lambda: carlitz_beta(2.0, F(2)), TypeError, NOT_AN_INT),
    "q-euler-negative": (lambda: q_euler(-1, F(2)), ValueError, NEGATIVE + "-1"),
    "q-euler-float": (lambda: q_euler(2.0, F(2)), TypeError, NOT_AN_INT),
    "one-minus-bracket-power": (
        lambda: one_minus_bracket_power(POINT, -1), ValueError, NEGATIVE + "-1"
    ),
    "one-minus-bracket-power-float": (
        lambda: one_minus_bracket_power(POINT, 2.0), TypeError, NOT_AN_INT
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
