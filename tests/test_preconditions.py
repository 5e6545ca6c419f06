"""How the library refuses input, stated once: each refusal of the engine is
a row of :data:`PRECONDITIONS`, a call with the exception type it raises and
its whole message, and the table runs through its one check,
:func:`test_precondition_raises`, which asserts that type and that message
exactly, once per row.  The rows are grouped by message, so by the gate of
``rings`` or the operation that raises it.  At run time, no function of the
package returns a float."""

import os
import sys
from fractions import Fraction as F

import pytest

import qbernstein
from qbernstein import families
from qbernstein.audit import run_all
from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Geometric,
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

from faults import clear_caches

LAW = Poisson(F(3, 2))
ONE = F(1)
T = Laurent({1: ONE})  # the symbol t
E = exp_series(ONE, 3)
POINT = QPoint(F(2, 3), 1, 2)
CLASSICAL = QPoint.classical(F(1, 3))
Q = F(3, 2)  # an integral's q
SHORT = CustomMoments((ONE, F(2), F(5)))  # mu_0 .. mu_2
# (the exception, its whole message) -> the calls that raise it, by row id
_RAISES = {
    # rings._frac: a value that is not an exact scalar
    (TypeError, "expected an exact scalar (Fraction or int), got float"): {
        "series-float": lambda: Series([0.5]),
        "series-pow-float": lambda: Series([1, 1]).pow(0.5),
        "laurent-float": lambda: Laurent({0: 0.5}),
        "logpoly-float": lambda: LogPoly({0: 0.5}),
        "table-power-float": lambda: mgf_table(LAW).power(0.5, 4),
        "poisson-float": lambda: Poisson(0.1),
        "bernoulli-float": lambda: Bernoulli(0.5),
        "binomial-float": lambda: Binomial(2, 0.5),
        "constant-float": lambda: Constant(0.3),
        "qpoint-float": lambda: QPoint(0.5, 1, 2),
        "classical-float": lambda: QPoint.classical(0.25),
        "bernstein-classical-float": lambda: bernstein_classical(1, 2, 0.25),
        "volkenborn-float": lambda: volkenborn(T, 0.5),
        "integrate-corollaries-float": lambda: integrate_corollaries(LAW, 0, 1, 0.5),
        "laurent-route-float": lambda: prob_qbernstein_laurent(LAW, 0, 1, 0.5),
        "carlitz-beta-float": lambda: carlitz_beta(1, 0.5),
        "frobenius-euler-float": lambda: frobenius_euler(2, 1, 0, 0.5),
        "falling-factorial-float": lambda: falling_factorial(0.5, 2),
        "poly-call-float": lambda: Poly([1, 1])(0.5),
    },
    (TypeError, "expected an exact scalar (Fraction or int), got str"): {
        "custom-moments-string": lambda: CustomMoments("12"),
        "poisson-string": lambda: Poisson("3/2"),
        "fermionic-string": lambda: fermionic(T, "1/2"),
        "higher-bernoulli-order-string": lambda: higher_bernoulli(3, "1", 0),
        "frobenius-euler-order-string": lambda: frobenius_euler(2, "1", 0, F(2)),
    },
    (TypeError, "expected an exact scalar (Fraction or int), got Laurent"): {
        "series-laurent-first": lambda: Series([T, ONE]),
        "series-laurent-second": lambda: Series([ONE, T]),
        "series-times-laurent": lambda: E * T,
        "laurent-times-series": lambda: T * E,
        "series-plus-laurent": lambda: E + T,
        "series-minus-laurent": lambda: E - T,
        "exp-series-laurent-rate": lambda: exp_series(T, 3),
        "series-pow-laurent": lambda: Series([1, F(1, 2)]).pow(T),
    },
    (TypeError, "unsupported operand type(s) for *: 'Laurent' and 'float'"): {
        "laurent-times-float": lambda: T * 0.5,  # Python's own, as a ring takes no float
    },
    # rings._index: an index that is not an integer (Python's own message), or is negative
    (TypeError, "'float' object cannot be interpreted as an integer"): {
        "laurent-exponent-float": lambda: Laurent({1.5: ONE}),
        "qpoint-c-float": lambda: QPoint(F(1, 2), 1.5, 2),
        "qpoint-d-float": lambda: QPoint(F(1, 2), 1, 2.0),
        "binomial-trials-float": lambda: Binomial(2.0, F(1, 2)),
        "series-truncate-float": lambda: Series([1, 2, 3]).truncate(1.0),
        "series-zero-float": lambda: Series.zero(2.0),
        "egf-coeff-float": lambda: Series([1, 1]).egf_coeff(1.0),
        "exp-series-float": lambda: exp_series(2, 3.0),
        "falling-factorial-index-float": lambda: falling_factorial(5, 2.0),
        "laurent-float-power": lambda: T**2.0,
        "table-bell-float": lambda: mgf_table(LAW).bell(2.0, 1),
        "table-bell-parts-float": lambda: mgf_table(LAW).bell_parts(2.0),
        "moment-float": lambda: LAW.moment(2.0),
        "mgf-series-float": lambda: LAW.mgf_series(3.0),
        "stirling2-float": lambda: stirling2(3.0, 1),
        "prob-stirling2-float": lambda: prob_stirling2(LAW, 3, 1.0),
        "bell-poly-float": lambda: bell_poly(2.0, ONE),
        "higher-bernoulli-index-float": lambda: higher_bernoulli(2.0, ONE, ONE),
        "frobenius-euler-index-float": lambda: frobenius_euler(2.0, ONE, ONE, F(2)),
        "prob-bernoulli-higher-n-float": lambda: prob_bernoulli_higher(LAW, 2.0, 1, ONE),
        "prob-bernoulli-higher-r-float": lambda: prob_bernoulli_higher(LAW, 2, 1.0, ONE),
        "prob-euler-float": lambda: prob_euler(LAW, 2.0, ONE),
        "qbernstein-float": lambda: families.qbernstein(1, 2.0, POINT),
        "prob-qbernstein-r-float": lambda: prob_qbernstein(LAW, 1.0, 2, POINT),
        "prob-qbernstein-n-float": lambda: prob_qbernstein(LAW, 1, 2.0, POINT),
        "prob-qbernstein-gf-r-float": lambda: prob_qbernstein_gf(LAW, 1.0, POINT, 4),
        "prob-qbernstein-gf-order-float": lambda: prob_qbernstein_gf(LAW, 1, POINT, 4.0),
        "prob-qbernstein-laurent-float": lambda: prob_qbernstein_laurent(LAW, 1, 2.0, F(2)),
        "integrate-weighted-term-w-float": lambda: integrate_weighted_term(LAW, 0, 2, 1.0, Q),
        "carlitz-beta-index-float": lambda: carlitz_beta(2.0, F(2)),
        "q-euler-float": lambda: q_euler(2.0, F(2)),
        "one-minus-bracket-power-float": lambda: one_minus_bracket_power(POINT, 2.0),
    },
    (TypeError, "'str' object cannot be interpreted as an integer"): {
        "laurent-exponent-string": lambda: Laurent({"2": ONE}),
    },
    (TypeError, "'Fraction' object cannot be interpreted as an integer"): {
        "negbinomial-successes-fraction": lambda: NegBinomial(F(3, 2), F(1, 2)),
    },
    (ValueError, "expected a nonnegative index, got -1"): {
        "binomial-trials-negative": lambda: Binomial(-1, F(1, 2)),
        "qpoint-d-negative": lambda: QPoint(F(1, 2), 1, -1),
        "series-zero-negative": lambda: Series.zero(-1),
        "egf-coeff": lambda: Series([1, 1]).egf_coeff(-1),
        "exp-series-negative": lambda: exp_series(2, -1),
        "falling-factorial-negative": lambda: falling_factorial(5, -1),
        "laurent-negative-power": lambda: T**-1,
        "table-bell-negative": lambda: mgf_table(LAW).bell(-1, 0),
        "table-bell-m-negative": lambda: mgf_table(LAW).bell(2, -1),
        "table-bell-parts-negative": lambda: mgf_table(LAW).bell_parts(-1),
        "moment": lambda: LAW.moment(-1),
        "mgf-series-negative": lambda: LAW.mgf_series(-1),
        "stirling2-negative": lambda: stirling2(-1, 0),
        "prob-stirling2-negative": lambda: prob_stirling2(LAW, 2, -1),
        "bell-poly": lambda: bell_poly(-1, ONE),
        "higher-bernoulli": lambda: higher_bernoulli(-1, ONE, ONE),
        "frobenius-euler": lambda: frobenius_euler(-1, ONE, ONE, F(2)),
        "prob-bernoulli-higher": lambda: prob_bernoulli_higher(LAW, -1, 0, ONE),
        "prob-bernoulli-higher-r-negative": lambda: prob_bernoulli_higher(LAW, 2, -1, ONE),
        "prob-euler": lambda: prob_euler(LAW, -1, ONE),
        "qbernstein-negative": lambda: families.qbernstein(-1, 2, POINT),
        "prob-qbernstein-r-negative": lambda: prob_qbernstein(LAW, -1, 2, POINT),
        "prob-qbernstein-n-negative": lambda: prob_qbernstein(LAW, 0, -1, POINT),
        "prob-qbernstein-gf-r-negative": lambda: prob_qbernstein_gf(LAW, -1, POINT, 4),
        "prob-qbernstein-gf-order-negative": lambda: prob_qbernstein_gf(LAW, 0, POINT, -1),
        "prob-qbernstein-laurent-negative": lambda: prob_qbernstein_laurent(LAW, -1, 2, F(2)),
        "integrate-corollaries-r-negative": lambda: integrate_corollaries(LAW, -1, 2, Q),
        "integrate-weighted-term-w-negative": lambda: integrate_weighted_term(LAW, 0, 2, -1, Q),
        "carlitz-beta": lambda: carlitz_beta(-1, F(2)),
        "q-euler-negative": lambda: q_euler(-1, F(2)),
        "one-minus-bracket-power": lambda: one_minus_bracket_power(POINT, -1),
    },
    (ValueError, "expected a nonnegative index, got -2"): {
        "series-truncate(-2)": lambda: Series([1, 2, 3, 4]).truncate(-2),
    },
    # rings._count, _positive, _check_p1 and _moments: a count and a law's other fields
    (ValueError, "expected a positive count, got 0"): {
        "binomial-trials-zero": lambda: Binomial(0, F(1, 2)),
        "negbinomial-successes-zero": lambda: NegBinomial(0, F(1, 2)),
        "qpoint-d-zero": lambda: QPoint(F(1, 2), 1, 0),
        "run-all-trials-zero": lambda: run_all(seed=1, trials=0, order=9),
    },
    (ValueError, "expected a positive rational, got 0"): {
        "poisson-alpha-zero": lambda: Poisson(0),
    },
    (ValueError, "expected a positive rational, got -1/2"): {
        "poisson-alpha-negative": lambda: Poisson(F(-1, 2)),
    },
    (ValueError, "success probability must lie in (0, 1]"): {
        "bernoulli-p1-zero": lambda: Bernoulli(F(0)),
        "bernoulli-p1-above-1": lambda: Bernoulli(F(3, 2)),
        "geometric-p1-above-1": lambda: Geometric(F(7, 5)),
    },
    (ValueError, "moment sequence must start with 1"): {
        "custom-moments-not-from-1": lambda: CustomMoments((F(2),)),
    },
    # rings._check_q: a base, as a point's rho, a bracket's q, a classical q and an integral's q
    (ValueError, "expected a base (a positive rational other than 1), got 1"): {
        "qpoint-rho-one": lambda: QPoint(ONE, 1, 2),
        "bracket-in-t-one": lambda: bracket_in_t(ONE),
        "one-minus-bracket-power-classical": lambda: one_minus_bracket_power(CLASSICAL, 2),
        "volkenborn-q-1": lambda: volkenborn(Laurent({0: 1}), ONE),
        "prob-qbernstein-laurent-q-1": lambda: prob_qbernstein_laurent(LAW, 0, 2, ONE),
        "integrate-corollaries-q-1": lambda: integrate_corollaries(LAW, 0, 2, ONE),
        "qpoint-rho-before-d": lambda: QPoint(ONE, 1, 0),
    },
    (ValueError, "expected a base (a positive rational other than 1), got 0"): {
        "qpoint-rho-zero": lambda: QPoint(F(0), 1, 2),
    },
    (ValueError, "expected a base (a positive rational other than 1), got -1/2"): {
        "qpoint-rho-negative": lambda: QPoint(F(-1, 2), 1, 2),
        "integrate-weighted-term-q-negative": (
            lambda: integrate_weighted_term(LAW, 0, 2, 1, F(-1, 2))
        ),
    },
    (ValueError, "expected a base (a positive rational other than 1), got -2"): {
        "volkenborn-negative-q": lambda: volkenborn(Laurent({0: 1}), F(-2)),
    },
    (ValueError, "expected a base (a positive rational other than 1), got -2/3"): {
        "fermionic-q-negative": lambda: fermionic(Laurent({0: 1}), F(-2, 3)),
    },
    # rings._check_indices: a lower index above the upper one
    (ValueError, "lower index 3 exceeds upper index 2"): {
        "prob-qbernstein-r-above-n": lambda: prob_qbernstein(LAW, 3, 2, POINT),
        "bernstein-classical-r-above-n": lambda: bernstein_classical(3, 2, F(1, 2)),
        "integrate-corollaries-r-above-n": lambda: integrate_corollaries(LAW, 3, 2, Q),
    },
    (ValueError, "lower index 2 exceeds upper index 1"): {
        "integrate-weighted-term-r-above-n": lambda: integrate_weighted_term(LAW, 2, 1, 0, Q),
    },
    # series: a series that an operation is not defined on
    (ValueError, "a series needs at least the constant coefficient"): {
        "series-empty": lambda: Series([]),
    },
    (ValueError, "cannot truncate upward"): {
        "series-truncate-upward": lambda: exp_series(ONE, 6).truncate(7),
    },
    (ValueError, "index 9 exceeds truncation order 8"): {
        "egf-coeff-above-order": lambda: exp_series(ONE, 8).egf_coeff(9),
    },
    (ValueError, "series order mismatch: 3 vs 4"): {
        "series-mul-order-mismatch": lambda: Series([1, 0, 0, 0]) * Series([1, 0, 0, 0, 0]),
    },
    (ValueError, "series reciprocal needs an invertible constant term"): {
        "series-recip-zero-constant": lambda: Series([0, 1]).recip(),
    },
    (ValueError, "series exp needs constant term 0"): {
        "series-exp-constant-1": lambda: Series([1, 1]).exp(),
    },
    (ValueError, "series log needs constant term 1"): {
        "series-log-constant-2": lambda: Series([2, 1]).log(),
    },
    (ValueError, "series pow needs constant term 1"): {
        "series-pow-constant-2": lambda: Series([2, 1]).pow(F(1, 2)),
    },
    (ValueError, "cannot derive a series of order 0"): {
        "derive-order-0": lambda: Series([1]).derive(),
    },
    # qcalc, distributions, families and audit: a value that their inputs leave undefined
    (ValueError, "classical point has no t value"): {
        "classical-point-t": lambda: CLASSICAL.t,
    },
    (TypeError, "Binomial takes the fields ('trials', 'p1')"): {
        "law-too-few-fields": lambda: Binomial(F(1, 2)),
    },
    (TypeError, "Poisson takes the fields ('alpha',)"): {
        "law-too-many-fields": lambda: Poisson(ONE, F(2)),
    },
    (ValueError, "only 3 moments provided, order 3 requested"): {
        "custom-moments-mgf-series-short": lambda: CustomMoments((ONE, ONE, F(2))).mgf_series(3),
    },
    (ValueError, "only 3 moments provided, order 4 requested"): {
        "prob-qbernstein-short-moments": lambda: prob_qbernstein(SHORT, 1, 5, POINT),
        "integrate-corollaries-short-moments": lambda: integrate_corollaries(SHORT, 1, 5, Q),
    },
    (ValueError, "u = 1 makes the generating function degenerate"): {
        "frobenius-euler-u-1": lambda: frobenius_euler(2, 1, 0, ONE),
    },
    (ValueError, "law has mean zero; v/(M - 1) is undefined"): {
        "prob-bernoulli-higher-mean-zero": lambda: prob_bernoulli_higher(Constant(0), 2, 1, ONE),
    },
    (ValueError, "monomial degree outside truncation order"): {
        "prob-qbernstein-gf-r-above-order": lambda: prob_qbernstein_gf(LAW, 5, POINT, 4),
    },
    (ValueError, "order below the largest drawn index 6"): {
        "run-all-order-below-the-drawn-indices": lambda: run_all(seed=1, trials=1, order=5),
    },
}

# id -> (the call, the exception it raises, its whole message)
PRECONDITIONS = {name: (call, *raised) for raised, calls in _RAISES.items()
                 for name, call in calls.items()}
assert len(PRECONDITIONS) == sum(map(len, _RAISES.values())), "a row id repeats"


@pytest.mark.parametrize("name", PRECONDITIONS)
def test_precondition_raises(name):
    """Row ``name``: its call raises exactly its exception type, with exactly
    its message."""
    call, error, message = PRECONDITIONS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


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

    clear_caches()
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
