"""Command-line front end.

Subcommands:

  table   grid of polynomial family values over index ranges
  eval    one family value
  series  coefficients of a truncated MGF or of the polynomial family's
          generating function at a point
  padic   apply one of the two integral operators to a small expression
  audit   run the identity registry and write the report

Start-up loads only what the parser needs: the standard library, ``rings``,
whose gates the flag types call, and ``qcalc``.  The engine loads when a
subcommand runs: ``table`` and ``series`` import ``families`` and
``distributions``, and with them ``series``; ``eval`` imports the module of
its family through the package's lazy names; ``padic`` imports ``padic``; and
``audit`` imports ``audit``, which loads the whole engine.  So ``--help`` and
a flag refused while it is parsed load no engine module.

Every rational is parsed and printed exactly ("p/q", or "p" when the
denominator is 1); formal-log values print as polynomials in the symbol L.
No floating point exists on any input or output path, so identical
invocations produce byte-identical outputs.

A size (--n, --r, --m, --order, a table range's ends, a ``padic`` power of
[x]) below 0 or above :data:`MAX_SIZE`, a count (--trials, --nbar, --a, --d)
below 1 or above it, an exponent (--c, a power of t) of magnitude above it,
a base (--rho, --q) that is not a positive rational other than 1, or a law
parameter (--alpha, --p1, --moments) that its law refuses, is a usage error
(exit 2), refused while the flags are parsed.  So is a flag a run would leave
unread, refused by :func:`_read` before anything is computed:
``table`` reads the point, --n, --r, and a law only when --dist is given;
``series`` reads the law, and --r and the point only at ``--kind
qbernstein-gf``; ``eval`` reads its family's arguments.

``table``, ``series`` and ``audit`` open --out, creating or emptying it, once
their flags are checked and before they compute: a refused flag leaves the file
as it was, an unwritable one exits 3 at once, and a run that raises after it
(exit 1) leaves it empty.

Exit codes, which :func:`main` alone sets from what a subcommand raises:
0 success, 1 computation precondition violated (ValueError, ArithmeticError),
2 usage error (UsageError), 3 I/O error (OSError).  ``audit`` also exits 1
when an expected-pass case fails.  Every nonzero exit writes one ``error:``
line to stderr (``i/o error:`` for an I/O error); a failing ``audit`` writes
it after its report, ``error: N expected-pass record(s) failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from .qcalc import QPoint, bracket_in_t
from .rings import Laurent, _check_p1, _check_q, _count, _index, _moments, _positive

DEFAULT_ORDER = 16

# The largest value a size flag takes: above every default (order 16), every
# pinned run (order 48) and the benchmark's sizes (n 32), so that only a size
# whose run would not end in useful time is refused.
MAX_SIZE = 256


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not an exact rational: {text!r}") from exc


def parse_exponent(text: str) -> int:
    """An integer of magnitude at most :data:`MAX_SIZE`, of either sign."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > MAX_SIZE:
        magnitude = "" if value > 0 else "the magnitude of "
        raise UsageError(f"{magnitude}{value} exceeds the largest size, {MAX_SIZE}")
    return value


def _gated(gate, parse=parse_rational):
    """The flag type ``gate(parse(text))``, the gate's ValueError a usage error."""
    def read(text: str):
        try:
            return gate(parse(text))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return read


# the checked flag types, each read through the package's one gate for it
parse_size = _gated(_index, parse_exponent)
parse_count = _gated(_count, parse_exponent)
parse_base = _gated(_check_q)
parse_positive = _gated(_positive)
parse_probability = _gated(_check_p1)
parse_moments = _gated(_moments, lambda text: tuple(map(parse_rational, text.split(","))))


def parse_range(text: str) -> range:
    """Either a single index "3" or an inclusive range "0..6", each end a
    size (:func:`parse_size`), so that a negative end gets its message."""
    m = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"not an index or range: {text!r}")
    lo = parse_size(m.group(1))
    hi = parse_size(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return range(lo, hi + 1)


def render_latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


# law name -> (the package's name of its class, the flags its constructor
# takes, in order)
_LAWS = {
    "poisson": ("Poisson", ("alpha",)),
    "bernoulli": ("Bernoulli", ("p1",)),
    "binomial": ("Binomial", ("nbar", "p1")),
    "geometric": ("Geometric", ("p1",)),
    "negbinomial": ("NegBinomial", ("a", "p1")),
    "uniform01": ("Uniform01", ()),
    "constant": ("Constant", ("value",)),
    "custom": ("CustomMoments", ("moments",)),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_dist_args(parser: argparse.ArgumentParser):
    parser.add_argument("--dist", choices=_LAWS)
    parser.add_argument("--alpha", type=parse_positive)
    parser.add_argument("--p1", type=parse_probability)
    parser.add_argument("--nbar", type=parse_count, help="binomial trial count")
    parser.add_argument("--a", type=parse_count, help="negative-binomial success count")
    parser.add_argument("--value", type=parse_rational, help="constant law value")
    parser.add_argument("--moments", type=parse_moments,
                        help="comma-separated exact moments for the custom law")


class UsageError(argparse.ArgumentTypeError):
    """Exit 2; argparse reports one raised while it converts a flag."""


def _require(condition: bool, message: str):
    if not condition:
        raise UsageError(message)


def _add_point_args(parser: argparse.ArgumentParser):
    parser.add_argument("--rho", type=parse_base, help="base of the point grid")
    parser.add_argument("--c", type=parse_exponent, help="t = rho**c")
    parser.add_argument("--d", type=parse_count, help="q = rho**d")
    parser.add_argument("--x", type=parse_rational, help="classical-mode argument (q = 1)")


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
    return QPoint(args.rho, args.c, args.d)


_POINT_FLAGS = ("rho", "c", "d", "x")
# the flags a run may leave unset, in the order :func:`_read` refuses them
_OPTIONAL = ("dist", *dict.fromkeys(f for _, flags in _LAWS.values() for f in flags),
             *_POINT_FLAGS, "r", "n", "m", "q", "u", "arg", "order_param")


def _read(args, names, reader) -> dict:
    """The inputs ``names`` of the run ``reader``, each required: "dist" is the
    law its flags build, "point" the point :func:`_build_point` builds, any other
    name its flag's value.  First, a flag of :data:`_OPTIONAL` not read is refused."""
    cls, law = _LAWS[args.dist] if "dist" in names and args.dist else (None, ())
    reads = {*names, *law, *(_POINT_FLAGS if "point" in names else ())}
    for name in _OPTIONAL:
        _require(getattr(args, name, None) is None or name in reads,
                 f"{_flag(name)} is not read by {reader}")
    for flags, owner in [(law, args.dist), *(((n,), reader) for n in names if n != "point")]:
        verb = "is" if len(flags) == 1 else "are"
        _require(all(getattr(args, flag) is not None for flag in flags),
                 f"{' and '.join(map(_flag, flags))} {verb} required for {owner}")
    got = {name: getattr(args, name, None) for name in names}
    if "dist" in names:
        # read from the package, which imports ``distributions`` on first read
        got["dist"] = getattr(sys.modules[__package__], cls)(*[getattr(args, f) for f in law])
    if "point" in names:
        got["point"] = _build_point(args)
    return got


def _open_out(path):
    """The file ``path`` opened for writing, or stdout when it is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _write_rows(out, fmt, header, rows):
    """Write ``rows``, tuples as wide as ``header``, under it to the stream ``out``,
    as JSON lines keyed by the header when ``fmt`` is json-lines, and as CSV
    otherwise.

    The CSV is the bytes ``csv.writer`` gives, fields joined by commas and
    lines ended by CRLF, built from one format string and joined once.  No
    field is quoted, since RFC 4180 (section 2) quotes only a field that holds
    a comma, a double quote or a line break, and the fields here are names,
    integers and rationals printed as "p" or "p/q", which hold none."""
    if fmt == "json-lines":
        lines = [json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n" for row in rows]
    else:
        line = ",".join(["%s"] * len(header)) + "\r\n"
        lines = [line % tuple(header), *map(line.__mod__, rows)]
    out.write("".join(lines))


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(args) -> int:
    from . import distributions, families

    got = _read(args, ("dist", "point", "n", "r") if args.dist else ("point", "n", "r"), "table")
    dist = got.get("dist") or distributions.Constant(Fraction(1))
    point = got["point"]
    with _open_out(args.out) as out:
        rows = []
        for n in got["n"]:
            for r in got["r"]:
                if r > n:
                    continue
                rows.append((n, r, families.prob_qbernstein(dist, r, n, point)))
        if args.format != "latex":
            _write_rows(out, args.format, ["n", "r", "value"], [(n, r, str(v)) for n, r, v in rows])
            return 0
        lines = ["\\begin{tabular}{rrl}", "$n$ & $r$ & $B^{Y}_{r,n}(x,q)$ \\\\", "\\hline"]
        lines += [f"{n} & {r} & ${render_latex_rational(v)}$ \\\\" for n, r, v in rows]
        out.write("\n".join(lines + ["\\end{tabular}", ""]))
    return 0


# family -> (the package's name of its function, its arguments in order);
# "dist" and "point" are built from the law and point flags, every other name
# is the flag of that name.
_EVAL_FAMILIES = {
    "qbernstein": ("qbernstein", ("r", "n", "point")),
    "prob-qbernstein": ("prob_qbernstein", ("dist", "r", "n", "point")),
    "bernstein": ("bernstein_classical", ("r", "n", "x")),
    "stirling2": ("stirling2", ("n", "m")),
    "prob-stirling2": ("prob_stirling2", ("dist", "n", "m")),
    "bell": ("bell_poly", ("n", "arg")),
    "euler": ("euler_poly", ("n", "arg")),
    "higher-bernoulli": ("higher_bernoulli", ("n", "order_param", "arg")),
    "frobenius-euler": ("frobenius_euler", ("n", "order_param", "arg", "u")),
    "prob-euler": ("prob_euler", ("dist", "n", "arg")),
    "prob-bernoulli": ("prob_bernoulli", ("dist", "n", "arg")),
    "prob-bernoulli-higher": ("prob_bernoulli_higher", ("dist", "n", "r", "arg")),
    "carlitz-beta": ("carlitz_beta", ("r", "q")),
    "q-euler": ("q_euler", ("r", "q")),
}


def cmd_eval(args) -> int:
    fam = args.family
    func_name, names = _EVAL_FAMILIES[fam]
    got = _read(args, names, f"family {fam}")
    # read from the package, which imports the defining module on first read
    func = getattr(sys.modules[__package__], func_name)
    try:
        value = func(*got.values())
    except ValueError as exc:
        raise ValueError(f"{fam}: {exc}") from exc
    print(value)
    return 0


def cmd_series(args) -> int:
    from . import families

    gf = args.kind == "qbernstein-gf"
    got = _read(args, ("dist", "r", "point") if gf else ("dist",), f"series --kind {args.kind}")
    with _open_out(args.out) as out:
        if gf:
            s = families.prob_qbernstein_gf(*got.values(), args.order)
        elif args.kind == "mgf":
            s = got["dist"].mgf_series(args.order)
        else:  # log-mgf
            s = got["dist"].mgf_series(args.order).log()
        rows = [(n, str(coeff), str(s.egf_coeff(n))) for n, coeff in enumerate(s.coeffs)]
        _write_rows(out, args.format, ["n", "coeff", "egf"], rows)
    return 0


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?
        (?:(?P<sym>t|\[x\])(?:\^(?P<exp>-?\d+))?)?\s*""",
    re.VERBOSE,
)


def parse_padic_expr(text: str) -> list:
    """Sums of c*t^b and c*[x]^r tokens, with optional rational coefficients,
    as (coefficient, symbol, power) terms; a constant is a term in t^0."""
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise UsageError(f"cannot parse expression near {text[pos:]!r}")
        sign, coef, sym, exp = m.group("sign", "coef", "sym", "exp")
        if sign is None and terms:
            raise UsageError(f"missing +/- before {text[pos:]!r}")
        if coef is None and sym is None:
            raise UsageError(f"empty term near position {pos} in {text!r}")
        coefficient = parse_rational(coef) if coef else Fraction(1)
        if sign == "-":
            coefficient = -coefficient
        read = parse_size if sym == "[x]" else parse_exponent
        power = read(exp) if exp is not None else (1 if sym else 0)
        terms.append((coefficient, sym or "t", power))
        pos = m.end()
    if not terms:
        raise UsageError("empty expression")
    return terms


def cmd_padic(args) -> int:
    from . import padic

    expr = Laurent()
    for coefficient, sym, power in args.expr:
        if sym == "t":
            expr = expr + Laurent({power: coefficient})
        else:
            expr = expr + coefficient * bracket_in_t(args.q) ** power
    print(getattr(padic, args.op)(expr, args.q))
    return 0


def cmd_audit(args) -> int:
    from . import audit

    least = audit.MAX_DRAWN_INDEX
    _require(args.order >= least,
             f"--order must be at least {least}, the largest index the audit draws")
    with _open_out(args.out) as out:
        report = audit.run_all(seed=args.seed, trials=args.trials, order=args.order)
        out.write({"json-lines": report.to_jsonl, "csv": report.to_csv,
                   "latex": report.to_latex}[args.format]())
    if args.out is not None:
        for line in report.summary_lines():
            print(line)
    failures = report.expected_pass_failures()
    if failures:
        print(f"error: {len(failures)} expected-pass record(s) failed", file=sys.stderr)
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
    p_eval.add_argument("--r", type=parse_size)
    p_eval.add_argument("--n", type=parse_size)
    p_eval.add_argument("--m", type=parse_size)
    p_eval.add_argument("--q", type=parse_base)
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
    p_series.add_argument("--r", type=parse_size)
    p_series.add_argument("--order", type=parse_size, default=DEFAULT_ORDER)
    p_series.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    p_series.add_argument("--out")
    p_series.set_defaults(func=cmd_series)

    p_padic = sub.add_parser("padic", help="apply an integral operator")
    p_padic.add_argument("--op", choices=["volkenborn", "fermionic"], required=True)
    p_padic.add_argument("--q", type=parse_base, required=True)
    p_padic.add_argument(
        "--expr", type=parse_padic_expr, required=True,
        help="sum of c*t^b and c*[x]^r terms, e.g. '3*t^2 - [x]^1 + 1/2'",
    )
    p_padic.set_defaults(func=cmd_padic)

    p_audit = sub.add_parser("audit", help="run the identity registry")
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--trials", type=parse_count, default=5)
    p_audit.add_argument("--order", type=parse_size, default=DEFAULT_ORDER)
    p_audit.add_argument(
        "--format", choices=["json-lines", "csv", "latex"], default="json-lines"
    )
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def _join_negative_values(argv: list) -> list:
    """``argv`` with each "--flag -value" pair written "--flag=-value".

    argparse takes a token that starts with "-" for an option unless it
    looks like a negative number such as "-3" or "-1.5", so "--arg -1/2" or
    "--expr -t" would be refused for want of a value.  Every long option of
    this parser but "--help" takes one value, and "-h" is its only short
    option, so a token that starts with a single "-" after such an option can
    only be its value.  "--" and the prefixes of "--help" take no value and
    are left alone."""
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (token.startswith("-") and not token.startswith("--") and flag.startswith("--")
                and "=" not in flag and not "--help".startswith(flag)):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    # Flags are parsed under Python's limit on the digits of an int string
    # (3.10.7 on); the run prints exact values past it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
