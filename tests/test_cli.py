"""The command-line contract: exit code 0 on success, 1 when a computation
precondition fails, 2 on a usage error (with an ``error: ...`` line and no
traceback), 3 on an I/O error; and byte-identical audit output across runs."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein import families, padic
from qbernstein.audit import MAX_DRAWN_INDEX
from qbernstein.cli import (
    MAX_SIZE,
    _EVAL_FAMILIES,
    _write_rows,
    build_parser,
    main,
    parse_padic_expr,
)
from qbernstein.distributions import NegBinomial
from qbernstein.qcalc import QPoint, bracket_in_t
from qbernstein.rings import Laurent

from outcomes import planted_runs

SRC = Path(__file__).resolve().parents[1] / "src"
POINT = ["--rho", "2/3", "--c", "1", "--d", "2"]


def run(capsys, argv):
    """Exit code and combined output of one in-process invocation."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out + err


def test_success_exits_0(capsys):
    argv = ["eval", "--family", "stirling2", "--n", "4", "--m", "2"]
    assert run(capsys, argv) == (0, "7\n")
    code, out = run(capsys, ["eval", "--family", "prob-qbernstein", "--dist", "poisson",
                             "--alpha", "1", "--r", "1", "--n", "2"] + POINT)
    assert (code, out) == (0, "18/25\n")
    # r = 0 reads M only through n, so three moments carry n = 2
    code, out = run(capsys, ["eval", "--family", "prob-bernoulli-higher", "--dist", "custom",
                             "--moments", "1,1,2", "--n", "2", "--r", "0", "--arg", "2/3"])
    assert (code, out) == (0, "10/9\n")


# every size flag: the arguments before it, the flag, and how its value is
# written ("{}" stands for the size)
SIZE_FLAGS = [
    (["table", "--r", "0"] + POINT, "--n", "{}"),
    (["table", "--r", "0"] + POINT, "--n", "0..{}"),
    (["table", "--r", "0"] + POINT, "--n", "{0}..{0}"),
    (["table", "--n", "0"] + POINT, "--r", "{}"),
    (["table", "--n", "0"] + POINT, "--r", "0..{}"),
    (["eval", "--family", "stirling2", "--m", "2"], "--n", "{}"),
    (["eval", "--family", "stirling2", "--n", "2"], "--m", "{}"),
    (["eval", "--family", "qbernstein", "--n", "2"], "--r", "{}"),
    (["series", "--dist", "poisson", "--alpha", "1"], "--order", "{}"),
    (["series", "--dist", "poisson", "--alpha", "1"], "--r", "{}"),
    (["audit"], "--order", "{}"),
    (["audit"], "--trials", "{}"),
    (["eval", "--family", "qbernstein", "--d", "2"], "--c", "{}"),
    (["eval", "--family", "qbernstein", "--c", "1"], "--d", "{}"),
    (["series", "--dist", "binomial", "--p1", "1/2"], "--nbar", "{}"),
    (["series", "--dist", "negbinomial", "--p1", "1/2"], "--a", "{}"),
]


def test_every_size_flag_takes_the_cap():
    """Each size flag takes MAX_SIZE, and --c, an exponent, takes -MAX_SIZE;
    one step further is refused (the table FAILURES)."""
    parser = build_parser()
    for before, flag, form in SIZE_FLAGS:
        value = getattr(parser.parse_args(before + [flag, form.format(MAX_SIZE)]), flag[2:])
        assert (value[-1] if isinstance(value, range) else value) == MAX_SIZE
    argv = ["eval", "--family", "qbernstein", "--c", str(-MAX_SIZE)]
    assert parser.parse_args(argv).c == -MAX_SIZE


def test_a_padic_exponent_at_the_cap_is_accepted():
    """parse_padic_expr takes a t exponent of magnitude MAX_SIZE; one above
    it, for t and for [x], is refused (the table FAILURES)."""
    for power in (MAX_SIZE, -MAX_SIZE):
        assert parse_padic_expr(f"t^{power}") == [(1, "t", power)]


def test_an_exact_value_longer_than_the_int_digit_limit_prints(capsys):
    """A value with more digits than Python's limit on an int printed as a
    string (4300 by default) prints in full; the limit is back after the
    run, so an input that long is still refused."""
    point = ["--rho", "9/5", "--c", "1", "--d", "64"]
    code, out = run(capsys, ["eval", "--family", "qbernstein", *point, "--r", "80", "--n", "80"])
    assert code == 0 and len(out) > 8000
    value = families.qbernstein(80, 80, QPoint(F(9, 5), 1, 64))
    num, den = out.strip().split("/")
    assert max(len(num), len(den)) > 4300
    assert (_int_of_digits(num), _int_of_digits(den)) == (value.numerator, value.denominator)
    code, out = run(capsys, ["eval", "--family", "qbernstein", "--rho", "7" * 4400,
                             "--c", "1", "--d", "2", "--r", "0", "--n", "1"])
    assert code == 2 and "error: argument --rho: not an exact rational" in out


def _int_of_digits(text: str) -> int:
    """The int a string of decimal digits names, read 1000 digits at a time,
    so that no read passes the digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_every_default_size_is_below_the_cap():
    audit, series = (build_parser().parse_args(argv) for argv in (["audit"], ["series"]))
    assert max(audit.order, audit.trials, series.order) < MAX_SIZE


NEGBINOMIAL = ["--dist", "negbinomial", "--a", "2", "--p1", "2/3"]
LAW, ARG = NegBinomial(2, F(2, 3)), F(2, 3)
AT_POINT = QPoint(F(2, 3), 1, 2)  # the point POINT names
# family -> (its flags, its value from the function called directly)
EVAL_CASES = {
    "qbernstein": (
        ["--r", "1", "--n", "3"] + POINT, lambda: families.qbernstein(1, 3, AT_POINT)
    ),
    "prob-qbernstein": (
        NEGBINOMIAL + ["--r", "1", "--n", "3"] + POINT,
        lambda: families.prob_qbernstein(LAW, 1, 3, AT_POINT),
    ),
    "bernstein": (
        ["--r", "1", "--n", "3", "--x", "2/5"],
        lambda: families.bernstein_classical(1, 3, F(2, 5)),
    ),
    "stirling2": (["--n", "5", "--m", "2"], lambda: families.stirling2(5, 2)),
    "prob-stirling2": (
        NEGBINOMIAL + ["--n", "5", "--m", "2"], lambda: families.prob_stirling2(LAW, 5, 2)
    ),
    "bell": (["--n", "5", "--arg", "2/3"], lambda: families.bell_poly(5, ARG)),
    "euler": (["--n", "5", "--arg", "2/3"], lambda: families.euler_poly(5, ARG)),
    "higher-bernoulli": (
        ["--n", "4", "--order-param", "3/2", "--arg", "2/3"],
        lambda: families.higher_bernoulli(4, F(3, 2), ARG),
    ),
    "frobenius-euler": (
        ["--n", "4", "--order-param", "2", "--arg", "2/3", "--u", "-2"],
        lambda: families.frobenius_euler(4, F(2), ARG, F(-2)),
    ),
    "prob-euler": (
        NEGBINOMIAL + ["--n", "4", "--arg", "2/3"], lambda: families.prob_euler(LAW, 4, ARG)
    ),
    "prob-bernoulli": (
        NEGBINOMIAL + ["--n", "4", "--arg", "2/3"],
        lambda: families.prob_bernoulli(LAW, 4, ARG),
    ),
    "prob-bernoulli-higher": (
        NEGBINOMIAL + ["--n", "4", "--r", "2", "--arg", "2/3"],
        lambda: families.prob_bernoulli_higher(LAW, 4, 2, ARG),
    ),
    "carlitz-beta": (["--r", "3", "--q", "3/2"], lambda: padic.carlitz_beta(3, F(3, 2))),
    "q-euler": (["--r", "3", "--q", "3/2"], lambda: padic.q_euler(3, F(3, 2))),
}


@pytest.mark.parametrize("family", sorted(_EVAL_FAMILIES))
def test_eval_prints_the_value_of_the_function_it_names(capsys, family):
    flags, value = EVAL_CASES[family]
    assert run(capsys, ["eval", "--family", family] + flags) == (0, f"{value()}\n")


@pytest.mark.parametrize(
    "op, expr, integral",
    [
        ("fermionic", "2*t^2 - [x]^2 + 1/2",
         lambda q: padic.fermionic(Laurent({2: F(2), 0: F(1, 2)}) - bracket_in_t(q) ** 2, q)),
        ("volkenborn", "t^-1", lambda q: padic.volkenborn(Laurent({-1: F(1)}), q)),
    ],
    ids=["fermionic", "volkenborn"],
)
def test_padic_prints_the_integral_of_the_expression(capsys, op, expr, integral):
    argv = ["padic", "--op", op, "--q", "3/2", "--expr", expr]
    assert run(capsys, argv) == (0, f"{integral(F(3, 2))}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dist", "poisson", "--alpha", "3/2", "--n", "0..4", "--r", "0..4"] + POINT,
        ["series"] + NEGBINOMIAL + ["--kind", "log-mgf", "--order", "6"],
        ["audit", "--trials", "1", "--order", str(MAX_DRAWN_INDEX)],
    ],
    ids=["table", "series", "audit"],
)
def test_stdout_carries_the_bytes_written_with_out(tmp_path, capsys, argv):
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


# a valid value of each flag that eval reads for some family
EVAL_FLAG_VALUES = {
    "--dist": "poisson", "--rho": "2/3", "--c": "1", "--d": "2", "--x": "1/3", "--r": "1",
    "--n": "2", "--m": "1", "--q": "1/2", "--u": "2", "--arg": "1", "--order-param": "1",
}


def _unread_by(family) -> list:
    """The flags of EVAL_FLAG_VALUES that ``eval --family family`` does not read."""
    reads = " ".join(_EVAL_FAMILIES[family][1]).replace("point", "rho c d x").replace("_", "-")
    return [flag for flag in EVAL_FLAG_VALUES if flag[2:] not in reads.split()]


# pieces of the command lines and error lines of FAILURES
AT, PADIC = " ".join(POINT), "padic --op volkenborn --q 2 --expr"
AUDIT = f"audit --trials 1 --order {MAX_DRAWN_INDEX}"
INDEX, COUNT = "expected a nonnegative index, got", "expected a positive count, got 0"
BASE = "expected a base (a positive rational other than 1), got"
TOO_BIG = f"exceeds the largest size, {MAX_SIZE}"
NO_POINT = "error: an evaluation point needs --rho, --c and --d (or classical --x)"
P1, MOMENTS = "success probability must lie in (0, 1]", "moment sequence must start with 1"
# each law flag, a value its gate refuses and the gate's message
REFUSED_LAW_VALUES = [
    ("--alpha", "0", "expected a positive rational, got 0"),
    ("--alpha", "-1/2", "expected a positive rational, got -1/2"),
    ("--p1", "0", P1),
    ("--p1", "3/2", P1),
    ("--moments", "2,1", MOMENTS),
]
# a run that reads each law flag, and one that reads none
LAW_READERS = {
    "--alpha": "series --dist poisson",
    "--p1": "table --dist binomial --nbar 2 --x 1/3 --n 2 --r 1",
    "--moments": "eval --family prob-stirling2 --dist custom --n 2 --m 1",
    None: "eval --family stirling2 --n 4 --m 2",
}

# How the command line fails: group -> (exit code, its cases); case id ->
# (command line, the end of its one error line from "error:" on), or a list of
# them.  Each test runs through the one check _failure_test, which runs
# _check_failure on each command line of a case, once per case.
FAILURES = {
    "test_computation_error_exits_1": (1, {
        "zero-mean": ("eval --family prob-bernoulli --dist constant --value 0 --n 2 --arg 1",
                      "error: prob-bernoulli: law has mean zero; v/(M - 1) is undefined"),
        "r-above-order": (f"series --dist poisson --alpha 1 --kind qbernstein-gf --r 5 --order 3 "
                          f"{AT}", "error: monomial degree outside truncation order"),
        "too-few-moments": ("series --dist custom --moments 1,2 --order 3",
                            "error: only 2 moments provided, order 3 requested"),
        "table-too-few-moments": ("table --dist custom --moments 1,2,5,7,11,13 --rho 1/2 --c 1 "
                                  "--d 2 --n 0..6 --r 0..6",
                                  "error: only 6 moments provided, order 6 requested"),
        "log-mgf-too-few-moments": ("series --dist custom --moments 1,2 --kind log-mgf --order 3",
                                    "error: only 2 moments provided, order 3 requested"),
        "frobenius-euler-at-u-1": (
            "eval --family frobenius-euler --u 1 --n 2 --order-param 1 --arg 0",
            "error: frobenius-euler: u = 1 makes the generating function degenerate"),
    }),
    "test_usage_error_exits_2": (2, {
        "argv0---trials": ("audit --trials 0", f"error: argument --trials: {COUNT}"),
        **{f"argv{i}---order": (f"audit --order {order}", f"error: --order must be at least "
                                f"{MAX_DRAWN_INDEX}, the largest index the audit draws")
           for i, order in ((1, MAX_DRAWN_INDEX - 1), (2, 0))},
        "argv3---order": ("audit --order -3", f"error: argument --order: {INDEX} -3"),
        "argv4---order": ("series --dist poisson --alpha 1 --order -1",
                          f"error: argument --order: {INDEX} -1"),
        "argv5---moments": ("eval --family prob-stirling2 --dist custom --moments 1,1/0 --n 2 "
                            "--m 1", "error: argument --moments: not an exact rational: '1/0'"),
        "argv6-start with 1": ("eval --family prob-stirling2 --dist custom --moments 2,1 --n 2 "
                               "--m 1", f"error: argument --moments: {MOMENTS}"),
        "argv7---m is required": ("eval --family stirling2 --n 4",
                                  "error: --m is required for family stirling2"),
        "argv8---dist is required": ("eval --family prob-euler --n 4 --arg 1",
                                     "error: --dist is required for family prob-euler"),
        "argv9---rho": ("eval --family qbernstein --r 1 --n 2", NO_POINT),
        "argv10---r": (f"series --dist poisson --alpha 1 --kind qbernstein-gf --r -1 {AT}",
                       f"error: argument --r: {INDEX} -1"),
        "argv11-empty range: '3..1'": (f"table --n 3..1 --r 0 {AT}",
                                       "error: argument --n: empty range: '3..1'"),
        "argv12-not an index or range: 'x'": (f"table --n x --r 0 {AT}",
                                              "error: argument --n: not an index or range: 'x'"),
        "table-rho-1": ("table --n 0..1 --r 0..1 --rho 1 --c 1 --d 2",
                        f"error: argument --rho: {BASE} 1"),
        "argv14-cannot parse expression near '@'": (
            f"{PADIC} t@", "error: argument --expr: cannot parse expression near '@'"),
        "argv15-missing +/- before 't'": (
            f"{PADIC} 't t'", "error: argument --expr: missing +/- before 't'"),
        "argv16-empty term near position 0 in '+'": (
            f"{PADIC} +", "error: argument --expr: empty term near position 0 in '+'"),
        "argv17---expr: expected a nonnegative index, got -1": (
            f"{PADIC} '[x]^-1'", f"error: argument --expr: {INDEX} -1"),
        "argv18-not an exact rational: '1/0'": (
            f"{PADIC} 't + 1/0*t'", "error: argument --expr: not an exact rational: '1/0'"),
        "argv19---n: expected a nonnegative index, got -2": (
            f"table --n 0..-2 --r 0 {AT}", f"error: argument --n: {INDEX} -2"),
        "volkenborn-at-q-1": ("padic --op volkenborn --q 1 --expr t",
                              f"error: argument --q: {BASE} 1"),
        "carlitz-beta-at-q-1": ("eval --family carlitz-beta --r 2 --q 1",
                                f"error: argument --q: {BASE} 1"),
        "q-euler-at-q-0": ("eval --family q-euler --r 2 --q 0", f"error: argument --q: {BASE} 0"),
        "table-rho-1-with-a-law": ("table --dist poisson --alpha 1 --rho 1 --c 1 --d 2 --n 0 "
                                   "--r 0", f"error: argument --rho: {BASE} 1"),
        "eval-unread-own-argument": ("eval --family stirling2 --n 4 --m 2 --q 1/2",
                                     "error: --q is not read by family stirling2"),
        "eval-unread-point": (f"eval --family bernstein --r 1 --n 3 --x 1/3 {AT}",
                              "error: --rho is not read by family bernstein"),
        "eval-unread-law": ("eval --family stirling2 --n 4 --m 2 --dist poisson --alpha 1",
                            "error: --dist is not read by family stirling2"),
        "series-mgf-no-law": ("series --order 2",
                              "error: --dist is required for series --kind mgf"),
        "series-log-mgf-no-law": ("series --kind log-mgf",
                                  "error: --dist is required for series --kind log-mgf"),
        "series-gf-no-r": ("series --kind qbernstein-gf --dist poisson --alpha 1 --x 1/3",
                           "error: --r is required for series --kind qbernstein-gf"),
        "series-gf-no-point": ("series --kind qbernstein-gf --dist poisson --alpha 1 --r 1",
                               NO_POINT),
        "table-law-missing-a-flag": ("table --dist negbinomial --p1 1/2 --x 1/3 --n 2 --r 1",
                                     "error: --a and --p1 are required for negbinomial"),
    }),
    # each size flag one above MAX_SIZE
    "test_a_size_above_the_cap_is_a_usage_error": (2, {
        **{f"before{i}-{flag}-{form}": (shlex.join(before + [flag, form.format(MAX_SIZE + 1)]),
                                        f"error: argument {flag}: {MAX_SIZE + 1} {TOO_BIG}")
           for i, (before, flag, form) in enumerate(SIZE_FLAGS)},
        "padic [x] power": (f"{PADIC} '[x]^99999999'",
                            f"error: argument --expr: 99999999 {TOO_BIG}"),
        "padic t power": (f"{PADIC} '1 + 2*t^{MAX_SIZE + 1}'",
                          f"error: argument --expr: {MAX_SIZE + 1} {TOO_BIG}"),
        "padic t power below minus the cap": (
            f"{PADIC} '1 + 2*t^{-MAX_SIZE - 1}'",
            f"error: argument --expr: the magnitude of {-MAX_SIZE - 1} {TOO_BIG}"),
        "padic [x] power one above the cap": (
            f"{PADIC} '1 + 2*[x]^{MAX_SIZE + 1}'",
            f"error: argument --expr: {MAX_SIZE + 1} {TOO_BIG}"),
    }),
    # --c is an exponent, bounded in magnitude; --d is a count, so -MAX_SIZE is negative
    "test_a_point_exponent_below_minus_the_cap_is_a_usage_error": (2, {
        flag: [(f"eval --family qbernstein --c 1 --d 2 {flag} {value}",
                f"error: argument {flag}: {message}") for value, message in refusals]
        for flag, refusals in (
            ("--c", [(-MAX_SIZE - 1, f"the magnitude of {-MAX_SIZE - 1} {TOO_BIG}")]),
            ("--d", [(-MAX_SIZE, f"{INDEX} {-MAX_SIZE}"),
                     (-MAX_SIZE - 1, f"the magnitude of {-MAX_SIZE - 1} {TOO_BIG}")]),
        )
    }),
    # every flag that reads a size, given -1
    "test_a_negative_size_is_a_usage_error": (2, {
        case: (line, f"error: argument {flag}: {INDEX} -1") for case, flag, line in (
            ("eval --n", "--n", "eval --family stirling2 --m 0 --n -1"),
            ("eval --n before --m", "--n", "eval --family stirling2 --n -1 --m 0"),
            ("eval --r", "--r", f"eval --family qbernstein --n 2 {AT} --r -1"),
            ("eval --m", "--m", "eval --family stirling2 --n 2 --m -1"),
            ("series --r", "--r",
             f"series --dist poisson --alpha 1 --kind qbernstein-gf {AT} --r -1"),
            ("series --order", "--order", "series --dist poisson --alpha 1 --order -1"),
            ("table --n", "--n", f"table --dist poisson --alpha 1 {AT} --r 0 --n -1"),
            ("table --n before --r", "--n",
             "table --dist poisson --alpha 1 --rho 1/2 --c 1 --d 2 --n -1 --r 0"),
            ("table --r", "--r", f"table --dist poisson --alpha 1 {AT} --n 0 --r -1"),
            ("audit --order", "--order", "audit --order -1"),
            ("audit --trials", "--trials", "audit --trials -1"),
            ("--d", "--d", "eval --family qbernstein --r 1 --n 2 --rho 2/3 --c 1 --d -1"),
            ("--nbar", "--nbar", "series --dist binomial --p1 1/2 --nbar -1"),
            ("--a", "--a", "series --dist negbinomial --p1 1/2 --a -1"),
            ("padic [x] power", "--expr", f"{PADIC} '[x]^-1'"),
        )
    }),
    # every flag that reads a count, given 0
    "test_a_zero_count_is_a_usage_error": (2, {
        case: (line, f"error: argument {flag}: {COUNT}") for case, flag, line in (
            ("audit --trials", "--trials", "audit --trials 0"),
            ("--nbar", "--nbar", f"table --dist binomial --p1 1/2 {AT} --n 2 --r 1 --nbar 0"),
            ("--nbar before --p1", "--nbar",
             "table --dist binomial --nbar 0 --p1 1/2 --rho 1/2 --c 1 --d 2 --n 0 --r 0"),
            ("--a", "--a", "series --dist negbinomial --p1 1/2 --a 0"),
            ("--a before --p1", "--a", "series --dist negbinomial --a 0 --p1 1/2"),
            ("--d", "--d", "eval --family qbernstein --r 1 --n 2 --rho 2/3 --c 1 --d 0"),
        )
    }),
    "test_a_padic_coefficient_longer_than_the_int_digit_limit_is_a_usage_error": (2, {
        "padic --expr": (f"{PADIC} {'3' * 5000}*t^2",
                         f"error: argument --expr: not an exact rational: '{'3' * 5000}'"),
    }),
    "test_missing_law_flag_exits_2": (2, {
        case: (f"eval --family prob-stirling2 --n 2 --m 1 --dist {law}", f"error: {message}")
        for case, law, message in (
            ("poisson", "poisson", "--alpha is required for poisson"),
            ("bernoulli", "bernoulli", "--p1 is required for bernoulli"),
            ("binomial-no-nbar", "binomial --p1 1/2", "--nbar and --p1 are required for binomial"),
            ("binomial-no-p1", "binomial --nbar 3", "--nbar and --p1 are required for binomial"),
            ("geometric", "geometric", "--p1 is required for geometric"),
            ("negbinomial-no-a", "negbinomial --p1 1/2",
             "--a and --p1 are required for negbinomial"),
            ("negbinomial-no-p1", "negbinomial --a 2",
             "--a and --p1 are required for negbinomial"),
            ("constant", "constant", "--value is required for constant"),
            ("custom", "custom", "--moments is required for custom"),
        )
    }),
    # each flag eval reads for some family, given to each family that does not
    "test_every_flag_a_family_does_not_read_exits_2": (2, {
        family: [(shlex.join(["eval", "--family", family, *flags, flag, EVAL_FLAG_VALUES[flag]]),
                  f"error: {flag} is not read by family {family}") for flag in _unread_by(family)]
        for family, (flags, _) in EVAL_CASES.items()
    }),
    # a flag the run does not read
    "test_a_flag_the_run_does_not_read_exits_2": (2, {
        case: (line, f"error: {error}") for case, line, error in (
            ("table-law-flag-of-another-law",
             "table --dist bernoulli --p1 1/2 --alpha 3 --x 1/3 --n 2 --r 1",
             "--alpha is not read by table"),
            ("table-law-flag-without-a-law", "table --alpha 3 --x 1/3 --n 2 --r 1",
             "--alpha is not read by table"),
            ("eval-law-flag-of-another-law",
             "eval --family prob-euler --dist poisson --alpha 1 --p1 1/2 --n 2 --arg 0",
             "--p1 is not read by family prob-euler"),
            ("eval-law-flag-without-a-law", "eval --family stirling2 --alpha 1 --n 4 --m 2",
             "--alpha is not read by family stirling2"),
            ("series-mgf-point-and-r", f"series --dist poisson --alpha 1 --order 2 {AT} --r 3",
             "--rho is not read by series --kind mgf"),
            ("series-log-mgf-r", "series --kind log-mgf --dist poisson --alpha 1 --order 2 --r 1",
             "--r is not read by series --kind log-mgf"),
            ("series-mgf-classical-point", "series --dist poisson --alpha 1 --order 2 --x 1/3",
             "--x is not read by series --kind mgf"),
            # a bad value is refused while the flags are parsed, whatever reads it
            ("table-before-a-bad-law",
             "table --dist bernoulli --p1 2 --alpha 3 --x 1/3 --n 2 --r 1",
             f"argument --p1: {P1}"),
        )
    }),
    # each refused law value, in a run that reads its flag and in one that does not
    "test_a_refused_law_parameter_is_a_usage_error": (2, {
        **{f"{reader}-{flag}={value}": (
            f"{LAW_READERS[flag if reader == 'read' else None]} {flag} {value}",
            f"error: argument {flag}: {message}")
           for reader in ("read", "unread") for flag, value, message in REFUSED_LAW_VALUES},
        "series-bernoulli---p1=2": ("series --dist bernoulli --p1 2",
                                    f"error: argument --p1: {P1}"),
        "series-custom---moments=2,1": ("series --dist custom --moments 2,1",
                                        f"error: argument --moments: {MOMENTS}"),
    }),
    # every writer, into a directory that does not exist
    "test_io_error_exits_3": (3, {
        "every writer": [(f"{line} --out missing/out",
                          "error: [Errno 2] No such file or directory: 'missing/out'")
                         for line in (
            f"table --n 0..2 --r 0..2 {AT}", f"table --n 0..2 --r 0..2 --format latex {AT}",
            "series --dist poisson --alpha 1",
            AUDIT, f"{AUDIT} --format csv", f"{AUDIT} --format latex",
        )],
    }),
    "test_a_malformed_negative_value_exits_2": (2, {
        value: (f"eval --family euler --n 3 --arg {value}",
                f"error: argument --arg: not an exact rational: '{value}'")
        for value in ("-1/0", "-1/x", "-1/2/3", "-")
    }),
    "test_an_empty_expression_is_a_usage_error": (2, {
        "-empty expression": (f"{PADIC} ''", "error: argument --expr: empty expression"),
        " -empty term near position 0": (
            f"{PADIC} ' '", "error: argument --expr: empty term near position 0 in ' '"),
    }),
}


def _usage(command) -> str:
    """The usage text argparse prints above its error line for ``command``."""
    (subcommands,) = [action for action in build_parser()._actions if action.dest == "command"]
    return subcommands.choices[command].format_usage()


def _check_failure(capsys, line, code, error):
    """The command line ``line`` exits ``code`` and prints one error line, which
    ends in ``error`` and stands alone or under argparse's usage text, with
    "i/o " before it for an I/O error: no traceback, no other line.  So does
    ``line`` with its last value written after "=", when a flag precedes it."""
    argv = shlex.split(line)
    alone = ("i/o " if code == 3 else "") + error + "\n"
    under_usage = f"{_usage(argv[0])}qbernstein {argv[0]}: {error}\n"
    given = [argv]
    if argv[-2].startswith("--") and not argv[-1].startswith("--"):
        given.append(argv[:-2] + [f"{argv[-2]}={argv[-1]}"])
    for each in given:
        got, out = run(capsys, each)
        assert got == code and out in (alone, under_usage), (each, got, out)


def _rows(rows):
    """The command lines and error lines of a case of FAILURES."""
    return rows if isinstance(rows, list) else [rows]


def _failure_test(name):
    """The test ``name``: for each case of FAILURES[name], each command line,
    run in an empty directory where "missing/out" names no file, fails as
    :func:`_check_failure` checks."""
    code, cases = FAILURES[name]

    @pytest.mark.parametrize("case", cases)
    def test(capsys, monkeypatch, tmp_path, case):
        monkeypatch.chdir(tmp_path)
        for line, error in _rows(cases[case]):
            _check_failure(capsys, line, code, error)
    return test


test_computation_error_exits_1 = _failure_test("test_computation_error_exits_1")
test_usage_error_exits_2 = _failure_test("test_usage_error_exits_2")
test_a_size_above_the_cap_is_a_usage_error = _failure_test(
    "test_a_size_above_the_cap_is_a_usage_error")
test_a_point_exponent_below_minus_the_cap_is_a_usage_error = _failure_test(
    "test_a_point_exponent_below_minus_the_cap_is_a_usage_error")
test_a_negative_size_is_a_usage_error = _failure_test("test_a_negative_size_is_a_usage_error")
test_a_zero_count_is_a_usage_error = _failure_test("test_a_zero_count_is_a_usage_error")
test_a_padic_coefficient_longer_than_the_int_digit_limit_is_a_usage_error = _failure_test(
    "test_a_padic_coefficient_longer_than_the_int_digit_limit_is_a_usage_error")
test_missing_law_flag_exits_2 = _failure_test("test_missing_law_flag_exits_2")
test_every_flag_a_family_does_not_read_exits_2 = _failure_test(
    "test_every_flag_a_family_does_not_read_exits_2")
test_a_flag_the_run_does_not_read_exits_2 = _failure_test(
    "test_a_flag_the_run_does_not_read_exits_2")
test_a_refused_law_parameter_is_a_usage_error = _failure_test(
    "test_a_refused_law_parameter_is_a_usage_error")
test_io_error_exits_3 = _failure_test("test_io_error_exits_3")
test_a_malformed_negative_value_exits_2 = _failure_test("test_a_malformed_negative_value_exits_2")
test_an_empty_expression_is_a_usage_error = _failure_test(
    "test_an_empty_expression_is_a_usage_error")


def test_each_group_of_failures_is_a_test():
    """Each group of FAILURES runs as the test of its name."""
    assert all(name in vars(sys.modules[__name__]) for name in FAILURES)


def test_out_is_opened_once_the_flags_are_checked_and_before_anything_is_computed(
        capsys, monkeypatch, tmp_path):
    """An unwritable --out exits 3 with nothing computed, and each usage error
    of FAILURES that a writer gives leaves an existing --out as it was."""
    def computed(*args, **kwargs):
        raise AssertionError("computed before --out was opened")

    monkeypatch.setattr("qbernstein.audit.run_all", computed)
    monkeypatch.setattr(families, "prob_qbernstein", computed)
    monkeypatch.chdir(tmp_path)
    for line in (AUDIT, f"table --n 0..2 --r 0..2 {AT}"):
        _check_failure(capsys, f"{line} --out missing/out", 3,
                       "error: [Errno 2] No such file or directory: 'missing/out'")
    (tmp_path / "kept").write_bytes(b"kept")
    for code, cases in FAILURES.values():
        for line, error in (row for rows in cases.values() for row in _rows(rows)):
            if code == 2 and line.split()[0] in ("table", "series", "audit"):
                _check_failure(capsys, f"{line} --out kept", 2, error)
                assert (tmp_path / "kept").read_bytes() == b"kept"


def test_a_failing_audit_writes_one_error_line():
    """Expected-pass cases that fail or raise make ``audit`` exit 1 with one
    ``error:`` line on stderr counting their records; stdout keeps the
    summary lines."""
    for _, _, planted in planted_runs():
        failures = planted.report.expected_pass_failures()
        assert (planted.code, planted.err) == (
            1, f"error: {len(failures)} expected-pass record(s) failed\n"
        )
        assert planted.out == "".join(line + "\n" for line in planted.report.summary_lines())


def test_an_audit_whose_sides_cannot_be_subtracted_writes_every_record():
    """Expected-pass cases whose sides cannot be subtracted, two series of
    different orders and a LogPoly against a series, give ERROR records, and
    ``audit --out`` still writes every record."""
    for trials, _, planted in planted_runs():
        assert planted.written == planted.report.to_jsonl()
        rows = [json.loads(line) for line in planted.written.splitlines()]
        assert [(r["id"], r["status"], r["lhs"], r["rhs"]) for r in rows
                if r["id"] in ("series-orders", "logpoly-series")] == trials * [
            ("logpoly-series", "ERROR", "-", "-")
        ] + trials * [("series-orders", "ERROR", "-", "-")]


def test_audit_jsonl_is_byte_identical_across_processes(tmp_path):
    """Two separate processes, with different string-hash seeds, pass at the
    least admissible order and write the same bytes."""
    outputs = []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"audit_{hash_seed}.jsonl"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "qbernstein", "audit", "--trials", "1",
             "--order", str(MAX_DRAWN_INDEX), "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_each_subcommand_runs_clean_under_development_mode(tmp_path):
    """One run of each subcommand exits 0 and writes nothing to stderr in a
    fresh interpreter in development mode, every warning an error, under -S
    as the start-up tests run."""
    for line in (
        f"audit --trials 1 --order {MAX_DRAWN_INDEX} --out audit.jsonl",
        "table --dist poisson --alpha 3/2 --rho 2/3 --c 1 --d 2 --n 0..8 --r 0..8 --format latex",
        "series --dist poisson --alpha 3/2 --kind log-mgf --format json-lines",
        "padic --op volkenborn --q 1/2 --expr '3*t^2 - [x]^1 + 1/2'",
        "eval --family prob-stirling2 --dist poisson --alpha 3/2 --n 4 --m 2",
        "eval --family carlitz-beta --r 2 --q 1/2",
    ):
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "dev", "-W", "error", "-m", "qbernstein",
             *shlex.split(line)], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), line


# The lazy start-up: code run in a fresh interpreter under -S (a .pth file
# may import typing), and the modules then loaded among the package's own and
# dataclasses, inspect and typing, a large share of import time if loaded.
START_UP = {
    "import-the-package": ("import qbernstein", []),
    "read-a-name": (
        "import qbernstein\nqbernstein.prob_qbernstein",
        ["distributions", "families", "qcalc", "rings", "series"],
    ),
    # building the parser, the set-up every invocation pays, and refusing a
    # law parameter load no engine module: the flag types need only the gates
    # of rings, which refuse a bad value while the flags are parsed
    "build-the-parser": ("from qbernstein import cli\ncli.build_parser()", ["cli", "qcalc", "rings"]),
    "refuse-a-law-parameter": (
        "from qbernstein import cli\ncli.build_parser()\ntry:\n"
        "    cli.main(['series', '--dist', 'poisson', '--alpha', '0'])\n"
        "except SystemExit as exc:\n    assert exc.code == 2\n"
        "else:\n    raise AssertionError('--alpha 0 was not refused')",
        ["cli", "qcalc", "rings"],
    ),
    "run-a-table": (
        "from qbernstein import cli\n"
        "assert cli.main(['table', '--dist', 'poisson', '--alpha', '3/2', '--rho', '2/3',"
        " '--c', '1', '--d', '2', '--n', '0..4', '--r', '0..4']) == 0",
        ["cli", "distributions", "families", "qcalc", "rings", "series"],
    ),
}


@pytest.mark.parametrize("code, loaded", START_UP.values(), ids=START_UP)
def test_start_up_loads_only_the_modules_it_needs(code, loaded):
    check = code + (
        "\nimport sys\n"
        "print(*sorted(m.removeprefix('qbernstein.') for m in sys.modules"
        " if m.startswith('qbernstein.') or m in ('dataclasses', 'inspect', 'typing')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", check],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == loaded


def test_main_reuses_one_parser(tmp_path):
    """The parser is built once per process, and reusing it changes nothing:
    two different invocations run one after the other in this process write
    the bytes that each writes alone in a fresh process."""
    assert build_parser() is build_parser()
    invocations = [
        ["table", "--dist", "geometric", "--p1", "3/4", "--n", "0..6", "--r", "0..6"] + POINT,
        ["series", "--dist", "poisson", "--alpha", "3/2", "--kind", "log-mgf", "--order", "6"],
    ]
    alone = []
    for i, argv in enumerate(invocations):
        path = tmp_path / f"alone_{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "qbernstein", *argv, "--out", str(path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        alone.append(path.read_bytes())
    for i, argv in enumerate(invocations):
        path = tmp_path / f"shared_{i}"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == alone[i]


# invocations with a negative value after its flag and a space, and what each
# prints (None: not pinned); each must act as it does with "=" for the space
NEGATIVE_VALUES = [
    (["eval", "--family", "euler", "--n", "3", "--arg", "-1/2"], "-1/4\n"),
    (["eval", "--family", "frobenius-euler", "--n", "3", "--order-param", "-3/2",
      "--arg", "1/2", "--u", "-1/3"], "2827/512\n"),
    (["table", "--dist", "constant", "--value", "-1/2", "--n", "0..2", "--r", "0..2"]
     + POINT, None),
    (["eval", "--family", "euler", "--n", "4", "--arg", "-2"], "30\n"),
]


@pytest.mark.parametrize("argv, printed", NEGATIVE_VALUES,
                         ids=["arg", "order-param-and-u", "table-value", "integer"])
def test_a_negative_value_reads_alike_after_a_space_and_an_equals_sign(capsys, argv, printed):
    spaced = run(capsys, argv)
    joined = []
    for token in argv:
        if token.startswith("-") and token[1:2].isdigit():
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert joined != argv
    assert spaced[0] == 0 and run(capsys, joined) == spaced
    if printed is not None:
        assert spaced[1] == printed


@pytest.mark.parametrize(
    "expr, printed", [("-t", "-2/3\n"), ("-[x]^2", "-2/21\n"), ("-t + 1", "1/3\n"), ("-1/2", None)]
)
def test_an_expression_reads_alike_after_a_space_and_an_equals_sign(capsys, expr, printed):
    argv = ["padic", "--op", "volkenborn", "--q", "2"]
    spaced = run(capsys, argv + ["--expr", expr])
    assert spaced[0] == 0 and run(capsys, argv + [f"--expr={expr}"]) == spaced
    if printed is not None:
        assert spaced[1] == printed


def test_the_console_script_runs_main():
    """The one ``[project.scripts]`` line names ``qbernstein.cli:main``."""
    text = (SRC.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip().splitlines() == ['qbernstein = "qbernstein.cli:main"']


def _csv_oracle(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


FIELD = st.one_of(st.integers(), st.fractions().map(str))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.sampled_from(["n", "r", "m", "value", "coeff", "egf"]),
             min_size=width, max_size=width),
    st.lists(st.tuples(*[FIELD] * width), max_size=8),
)))
def test_csv_rows_are_the_bytes_of_csv_writer(table):
    """Rows of integers and rationals of either sign, integer-valued ones
    among them, are written as ``csv.writer`` writes them."""
    header, rows = table
    out = io.StringIO()
    _write_rows(out, "csv", header, rows)
    assert out.getvalue() == _csv_oracle(header, rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dist", "negbinomial", "--a", "2", "--p1", "2/3",
         "--n", "0..6", "--r", "0..6", "--rho", "3/2", "--c", "1", "--d", "3"],
        ["series", "--dist", "poisson", "--alpha", "3/2", "--kind", "log-mgf", "--order", "6"],
    ],
    ids=["table", "series"],
)
def test_csv_output_is_csv_writer_over_the_json_lines_rows(tmp_path, argv):
    """The CSV of a run is what ``csv.writer`` makes of the rows of its JSON
    lines; the pinned digests keep the JSON lines and LaTeX as they were."""
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.jsonl"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json-lines", "--out", str(json_path)]) == 0
    records = [json.loads(line) for line in json_path.read_text().splitlines()]
    header = list(records[0])
    rows = [tuple(record[key] for key in header) for record in records]
    assert csv_path.read_bytes() == _csv_oracle(header, rows).encode()
