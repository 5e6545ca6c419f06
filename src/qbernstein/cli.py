"""Command-line front end.

Subcommands:

  table   grid of polynomial family values over index ranges
  eval    one family value
  series  coefficients of a truncated MGF or of the polynomial family's
          generating function at a point
  padic   apply one of the two integral operators to a small expression
  audit   run the identity registry and write the report

Every rational is parsed and printed exactly ("p/q", or "p" when the
denominator is 1); formal-log values print as polynomials in the symbol L.
No floating point exists on any input or output path, so identical
invocations produce byte-identical outputs.

Exit codes, which :func:`main` alone sets from what a subcommand raises:
0 success, 1 computation precondition violated (ValueError, ArithmeticError),
2 usage error (UsageError), 3 I/O error (OSError).  ``audit`` also exits 1
when an expected-pass case fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

from . import audit as audit_mod
from . import families, padic
from .distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
)
from .qcalc import QPoint, bracket_in_t
from .rings import Laurent

DEFAULT_ORDER = 16


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def parse_moments(text: str) -> tuple:
    """A comma-separated list of exact rationals."""
    return tuple(parse_rational(part) for part in text.split(","))


def parse_range(text: str) -> range:
    """Either a single index "3" or an inclusive range "0..6"."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"not an index or range: {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return range(lo, hi + 1)


def render_latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


# law name -> (its class, the flags its constructor takes, in order)
_LAWS = {
    "poisson": (Poisson, ("alpha",)),
    "bernoulli": (Bernoulli, ("p1",)),
    "binomial": (Binomial, ("nbar", "p1")),
    "geometric": (Geometric, ("p1",)),
    "negbinomial": (NegBinomial, ("a", "p1")),
    "uniform01": (Uniform01, ()),
    "constant": (Constant, ("value",)),
    "custom": (CustomMoments, ("moments",)),
}


def _add_dist_args(parser: argparse.ArgumentParser):
    parser.add_argument("--dist", choices=_LAWS)
    parser.add_argument("--alpha", type=parse_rational)
    parser.add_argument("--p1", type=parse_rational)
    parser.add_argument("--nbar", type=int, help="binomial trial count")
    parser.add_argument("--a", type=int, help="negative-binomial success count")
    parser.add_argument("--value", type=parse_rational, help="constant law value")
    parser.add_argument(
        "--moments", type=parse_moments,
        help="comma-separated exact moments for the custom law",
    )


def _build_dist(args):
    if args.dist is None:
        return None
    cls, flags = _LAWS[args.dist]
    values = [getattr(args, flag) for flag in flags]
    names = " and ".join("--" + flag for flag in flags)
    verb = "is" if len(flags) == 1 else "are"
    _require(None not in values, f"{names} {verb} required for {args.dist}")
    try:
        return cls(*values)
    except ValueError as exc:
        raise UsageError(str(exc))


class UsageError(Exception):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _add_point_args(parser: argparse.ArgumentParser):
    parser.add_argument("--rho", type=parse_rational, help="base of the point grid")
    parser.add_argument("--c", type=int, help="t = rho**c")
    parser.add_argument("--d", type=int, help="q = rho**d")
    parser.add_argument(
        "--x", type=parse_rational, help="classical-mode argument (q = 1)"
    )


def _build_point(args) -> QPoint:
    if args.x is not None:
        _require(
            args.rho is None and args.c is None and args.d is None,
            "give either --x or (--rho, --c, --d), not both",
        )
        return QPoint.classical(args.x)
    _require(
        args.rho is not None and args.c is not None and args.d is not None,
        "an evaluation point needs --rho, --c and --d (or classical --x)",
    )
    try:
        return QPoint(args.rho, args.c, args.d)
    except ValueError as exc:
        raise UsageError(str(exc))


def _write(path, payload: str):
    """Write ``payload`` to the file ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w", newline="") as fh:
        fh.write(payload)


def _write_rows(args, header, rows):
    """Write ``rows`` under ``header`` to ``args.out``, as JSON lines keyed by
    the header when ``args.format`` is json-lines, and as CSV otherwise."""
    buf = io.StringIO()
    if args.format == "json-lines":
        for row in rows:
            buf.write(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n")
    else:
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
    _write(args.out, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(args) -> int:
    dist = _build_dist(args) or Constant(Fraction(1))
    point = _build_point(args)
    rows = []
    for n in args.n:
        for r in args.r:
            if r > n:
                continue
            rows.append((n, r, families.prob_qbernstein(dist, r, n, point)))
    if args.format != "latex":
        _write_rows(args, ["n", "r", "value"], [(n, r, str(v)) for n, r, v in rows])
        return 0
    lines = ["\\begin{tabular}{rrl}", "$n$ & $r$ & $B^{Y}_{r,n}(x,q)$ \\\\", "\\hline"]
    lines += [f"{n} & {r} & ${render_latex_rational(v)}$ \\\\" for n, r, v in rows]
    _write(args.out, "\n".join(lines + ["\\end{tabular}", ""]))
    return 0


# family -> (function, its arguments in order); "dist" and "point" are built
# from the law and point flags, every other name is the flag of that name.
_EVAL_FAMILIES = {
    "qbernstein": (families.qbernstein, ("r", "n", "point")),
    "prob-qbernstein": (families.prob_qbernstein, ("dist", "r", "n", "point")),
    "bernstein": (families.bernstein_classical, ("r", "n", "x")),
    "stirling2": (families.stirling2, ("n", "m")),
    "prob-stirling2": (families.prob_stirling2, ("dist", "n", "m")),
    "bell": (families.bell_poly, ("n", "arg")),
    "euler": (families.euler_poly, ("n", "arg")),
    "higher-bernoulli": (families.higher_bernoulli, ("n", "order_param", "arg")),
    "frobenius-euler": (
        families.frobenius_euler, ("n", "order_param", "arg", "u"),
    ),
    "prob-euler": (families.prob_euler, ("dist", "n", "arg")),
    "prob-bernoulli": (families.prob_bernoulli, ("dist", "n", "arg")),
    "prob-bernoulli-higher": (
        families.prob_bernoulli_higher, ("dist", "n", "r", "arg"),
    ),
    "carlitz-beta": (padic.carlitz_beta, ("r", "q")),
    "q-euler": (padic.q_euler, ("r", "q")),
}


def cmd_eval(args) -> int:
    fam = args.family
    dist = _build_dist(args)
    func, names = _EVAL_FAMILIES[fam]

    def argument(name):
        if name == "point":
            return _build_point(args)
        value = dist if name == "dist" else getattr(args, name)
        flag = "--" + name.replace("_", "-")
        _require(value is not None, f"{flag} is required for family {fam}")
        return value

    try:
        value = func(*(argument(name) for name in names))
    except ValueError as exc:
        raise ValueError(f"{fam}: {exc}") from exc
    print(value)
    return 0


def cmd_series(args) -> int:
    dist = _build_dist(args)
    _require(dist is not None, "--dist is required")
    order = args.order
    _require(order >= 0, "--order must be nonnegative")
    if args.kind == "mgf":
        s = dist.mgf_series(order)
    elif args.kind == "log-mgf":
        s = dist.mgf_series(order).log()
    else:  # qbernstein-gf
        _require(args.r is not None, "--r is required for the qbernstein-gf kind")
        _require(args.r >= 0, "--r must be nonnegative")
        s = families.prob_qbernstein_gf(dist, args.r, _build_point(args), order)
    rows = [(n, str(coeff), str(s.egf_coeff(n))) for n, coeff in enumerate(s.coeffs)]
    _write_rows(args, ["n", "coeff", "egf"], rows)
    return 0


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?
        (?:(?P<sym>t|\[x\])(?:\^(?P<exp>-?\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_padic_expr(text: str, q: Fraction) -> Laurent:
    """Sums of c*t^b and c*[x]^r tokens, with optional rational coefficients."""
    result = Laurent()
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise UsageError(f"cannot parse expression near {text[pos:]!r}")
        sign, coef, sym, exp = m.group("sign", "coef", "sym", "exp")
        if sign is None and not first:
            raise UsageError(f"missing +/- before {text[pos:]!r}")
        if coef is None and sym is None:
            raise UsageError(f"empty term near position {pos} in {text!r}")
        coefficient = Fraction(coef) if coef else Fraction(1)
        if sign == "-":
            coefficient = -coefficient
        power = int(exp) if exp is not None else (1 if sym else 0)
        if sym == "t":
            term = Laurent({power: coefficient})
        elif sym == "[x]":
            if power < 0:
                raise UsageError("bracket powers must be nonnegative")
            term = coefficient * bracket_in_t(q) ** power
        else:
            term = Laurent({0: coefficient})
        result = result + term
        pos = m.end()
        first = False
    return result


def cmd_padic(args) -> int:
    expr = parse_padic_expr(args.expr, args.q)
    if args.op == "volkenborn":
        value = padic.volkenborn(expr, args.q)
    else:
        value = padic.fermionic(expr, args.q)
    print(value)
    return 0


def cmd_audit(args) -> int:
    _require(args.trials >= 1, "--trials must be at least 1")
    least = audit_mod.MAX_DRAWN_INDEX
    _require(
        args.order >= least,
        f"--order must be at least {least}, the largest index the audit draws",
    )
    report = audit_mod.run_all(seed=args.seed, trials=args.trials, order=args.order)
    if args.format == "json-lines":
        payload = report.to_jsonl()
    elif args.format == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_latex()
    _write(args.out, payload)
    if args.out is not None:
        for line in report.summary_lines():
            print(line)
    failures = report.expected_pass_failures()
    if failures:
        print(f"{len(failures)} expected-pass record(s) failed", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="qbernstein",
        description="Exact computation and identity auditing for probabilistic "
        "q-Bernstein polynomials and their relatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="tabulate family values over index ranges")
    _add_dist_args(p_table)
    _add_point_args(p_table)
    p_table.add_argument("--n", type=parse_range, required=True)
    p_table.add_argument("--r", type=parse_range, required=True)
    p_table.add_argument(
        "--format", choices=["csv", "json-lines", "latex"], default="csv"
    )
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="print one family value")
    p_eval.add_argument("--family", choices=_EVAL_FAMILIES, required=True)
    _add_dist_args(p_eval)
    _add_point_args(p_eval)
    p_eval.add_argument("--r", type=int)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--q", type=parse_rational)
    p_eval.add_argument("--u", type=parse_rational)
    p_eval.add_argument("--arg", type=parse_rational, help="polynomial argument")
    p_eval.add_argument(
        "--order-param", type=parse_rational, help="family order parameter"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_series = sub.add_parser("series", help="dump truncated series coefficients")
    _add_dist_args(p_series)
    _add_point_args(p_series)
    p_series.add_argument(
        "--kind", choices=["mgf", "log-mgf", "qbernstein-gf"], default="mgf"
    )
    p_series.add_argument("--r", type=int)
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    p_series.add_argument("--out")
    p_series.set_defaults(func=cmd_series)

    p_padic = sub.add_parser("padic", help="apply an integral operator")
    p_padic.add_argument(
        "--op", choices=["volkenborn", "fermionic"], required=True
    )
    p_padic.add_argument("--q", type=parse_rational, required=True)
    p_padic.add_argument(
        "--expr", required=True,
        help="sum of c*t^b and c*[x]^r terms, e.g. '3*t^2 - [x]^1 + 1/2'",
    )
    p_padic.set_defaults(func=cmd_padic)

    p_audit = sub.add_parser("audit", help="run the identity registry")
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--trials", type=int, default=5)
    p_audit.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_audit.add_argument(
        "--format", choices=["json-lines", "csv", "latex"], default="json-lines"
    )
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
