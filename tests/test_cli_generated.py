"""The command-line contract under generated argv.

Each example builds an argv for one of the subcommands of
:func:`qbernstein.cli.build_parser`, from that subcommand's own actions: each
flag's value is drawn by the action's ``choices`` or ``type``, so a flag added
later is drawn without an edit here.  Each value is drawn from valid tokens
(signs and "p/q" among them) or from edge and malformed ones ("1/0", "", " ",
"3..1", -1 for a size, 0 for a count or a Poisson mean, 3/2 for a success
probability, "2,1" for moments, +-257, "-t", "-h", "--"), and
:func:`qbernstein.cli.main` runs it in process.  On every argv:

- ``main`` returns or exits with code 0, 1, 2 or 3, and raises nothing else;
- stderr holds no traceback, and a nonzero exit writes exactly one
  ``error:`` line;
- every value reads the same after a space as after "=" (save "--", which
  ends the options when it stands alone): the same exit code and output;
- a clean argv, which gives only flags its run reads, is never refused for
  an unread flag, and a clean ``table`` argv exits 0;
- on exit 0, each value ``table`` writes equals what ``eval`` prints for the
  family prob-qbernstein at the same law, point and indices.

Since only a few of those argvs are clean tables, a second property draws
clean ``table`` argvs only, a law of ``_LAWS`` at a grid or classical point
written as CSV or JSON lines, and compares every row with ``eval``.

Size bound: 150 examples of the first property, each run at most twice plus
one ``eval`` per table row, and 100 of the second.  A valid size is at most 5,
a table range ends at 4, an audit runs at most 2 trials at order 8 and a
``padic`` exponent is at most 3 in magnitude, so the two take about 3 s.
Sizes near the cap belong to a benchmark, not here.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.cli import (
    _EVAL_FAMILIES,
    _LAWS,
    _OPTIONAL,
    build_parser,
    main,
    parse_base,
    parse_count,
    parse_exponent,
    parse_moments,
    parse_padic_expr,
    parse_positive,
    parse_probability,
    parse_range,
    parse_rational,
    parse_size,
)

SUBCOMMANDS = next(
    action.choices for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
# tokens every flag may get: empty, blank, the help flag and the end of options
EDGE = ["", " ", "-h", "--"]
# a flag's type -> (tokens it reads, edge and malformed tokens)
KINDS = {
    parse_rational: (["1", "2", "1/2", "-1/2", "3/2", "-3", "2/3"], ["0", "1/0", "x", "-", "-t"]),
    parse_base: (["2/3", "3/2", "1/2", "2"], ["1", "0", "-1/2", "1/0", "x"]),
    parse_positive: (["1", "2", "1/2", "3/2", "2/3"], ["0", "-1/2", "-3", "1/0", "x", "-", "-t"]),
    parse_probability: (
        ["1", "1/2", "2/3"], ["0", "3/2", "2", "-1/2", "-3", "1/0", "x", "-", "-t"],
    ),
    parse_size: (["0", "1", "2", "3", "5"], ["-1", "257", "-257", "1/2", "x", "-t"]),
    parse_count: (["1", "2", "3", "5"], ["0", "-1", "257", "-257", "1/2", "x", "-t"]),
    parse_exponent: (["0", "1", "2", "3", "-1"], ["257", "-257", "1/2", "x", "-t"]),
    parse_range: (["0", "2", "0..3", "1..4"], ["3..1", "-1", "0..257", "x"]),
    parse_moments: (["1,1,2", "1,2,5,7,11", "1,-1/2,3"], ["1,1/0", "2,1", "1,", "-1"]),
    parse_padic_expr: (
        ["t", "-t", "-[x]^2", "3*t^2 - [x]^1 + 1/2", "t^-2", "-t + 1", "[x]^3", "-1/2"],
        ["1/0*t", "t^257", "[x]^-1", "t t", "+", "t@"],
    ),
    int: (["42", "1", "-3", "257"], ["1/2", "x"]),
}
# flags whose valid values are fewer than their type reads, by name or by
# (subcommand, name): an audit is kept to at most 2 trials at an order at or
# above its floor, and a custom law gives 5 moments, so a table up to n = 4
# can grow.  The shorter sequences stay among the edge tokens of noisy argvs.
DOMAINS = {
    ("audit", "trials"): (["1", "2"], ["0", "-1", "257", "x"]),
    ("audit", "order"): (["6", "8"], ["5", "0", "-3", "257", "x"]),
    "moments": (
        ["1,1,2,5,15", "1,2,5,7,11", "1,-1/2,3,0,1/2"],
        ["1,1,2", "1,-1/2,3", "1,1/0", "2,1", "1,", "-1"],
    ),
}
# the two forms of an evaluation point, by the flags each gives
STYLES = {"grid": {"rho", "c", "d"}, "classical": {"x"}}
POINT = set().union(*STYLES.values())
# what a clean argv of each subcommand gives beyond its required flags, an eval
# family's arguments, the law's parameters and what series reads at
# qbernstein-gf; "dist" and "point" stand for the flags that build them
GIVEN = {"table": {"point"}, "series": {"dist", "order"}, "audit": {"trials", "order"}}


def _tokens(command, action):
    if action.choices:
        return sorted(action.choices), ["nope"]
    return DOMAINS.get((command, action.dest)) or DOMAINS.get(action.dest) or KINDS[action.type]


@st.composite
def _value(draw, tokens, needed, noisy):
    """One of ``tokens``' tokens, or None for an absent flag: valid when the
    flag is needed, mostly absent when it is not, and now and then edge or
    absent regardless when ``noisy``."""
    roll = draw(st.integers(0, 9))
    valid, edge = tokens
    if noisy and roll == 1:
        return draw(st.sampled_from(edge + EDGE))
    if (noisy and roll == 0) or (not needed and roll < 7):
        return None
    return draw(st.sampled_from(valid))


@st.composite
def _argv(draw, out):
    """(subcommand, its (flag, value) pairs in any order, whether it is
    noisy).  Half the argvs are clean, every needed flag given a valid value
    and no flag of ``_OPTIONAL`` the run does not read; the others are noisy,
    with edge values, absent and stray flags and an --out that names a file in
    a missing directory.  A flag is needed when the parser requires it, the
    eval family, the kind or the law reads it, or ``GIVEN`` names it; a table
    reads a law half the time."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    noisy = draw(st.booleans())
    parsed = {action.dest: action for action in SUBCOMMANDS[command]._actions}
    actions = {dest: action for dest, action in parsed.items() if dest not in ("help", "out")}
    wanted = {dest for dest, action in actions.items() if action.required}
    wanted |= GIVEN.get(command, set())
    if command == "table" and draw(st.booleans()):
        wanted.add("dist")
    values = {}

    def give(dest):
        values[dest] = draw(_value(_tokens(command, actions[dest]), dest in wanted, noisy))
        return values[dest]

    # the family's, the kind's and the law's values decide which other flags
    # are needed
    if "family" in actions:
        wanted |= set(_EVAL_FAMILIES.get(give("family"), ((), ()))[1])
    if "kind" in actions and give("kind") == "qbernstein-gf":
        wanted |= {"r", "point"}
    if "dist" in actions and (noisy or "dist" in wanted):
        wanted |= set(_LAWS.get(give("dist"), ((), ()))[1])
    if "point" in wanted:
        styles = {**STYLES, **({"both": POINT, "none": set()} if noisy else {})}
        wanted |= styles[draw(st.sampled_from(sorted(styles)))]
    for dest in actions:
        if dest not in values and (noisy or dest in wanted or dest not in _OPTIONAL):
            give(dest)
    pairs = [(actions[dest].option_strings[0], value) for dest, value in values.items()]
    if "out" in parsed and draw(st.booleans()):
        outs = [str(out)] + ([str(out.parent / "missing" / "out"), "", "--"] if noisy else [])
        pairs.append(("--out", draw(st.sampled_from(outs))))
    pairs = draw(st.permutations([pair for pair in pairs if pair[1] is not None]))
    return command, pairs, noisy


def _run(argv, out):
    """Exit code, stdout (and the bytes written to ``out``) and stderr of one
    in-process invocation."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = out.read_text() if out.exists() else None
    return code, stdout.getvalue(), written, stderr.getvalue()


def _table_rows(pairs, text):
    """The (n, r, value) rows of a table run's output, or [] for LaTeX."""
    fmt = dict(pairs).get("--format", "csv")
    if fmt == "json-lines":
        return [tuple(json.loads(line).values()) for line in text.splitlines()]
    if fmt == "csv":
        return [tuple(line.split(",", 2)) for line in text.splitlines()[1:]]
    return []


def _assert_rows_equal_eval(out, pairs, text):
    """Each row of the output ``text`` of the table run ``pairs`` equals what
    ``eval`` prints for the family prob-qbernstein at the same law (Constant(1)
    when none is given), point and indices."""
    point_and_law = [f"{flag}={value}" for flag, value in pairs
                     if flag not in ("--n", "--r", "--format", "--out")]
    if "--dist" not in dict(pairs):
        point_and_law += ["--dist=constant", "--value=1"]
    for n, r, printed in _table_rows(pairs, text):
        argv = ["eval", "--family=prob-qbernstein", f"--n={n}", f"--r={r}", *point_and_law]
        assert _run(argv, out)[:2] == (0, f"{printed}\n"), (pairs, argv)


@st.composite
def _clean_table(draw):
    """The (flag, value) pairs, in any order, of a clean ``table`` argv: a law
    of ``_LAWS`` with valid parameters, a grid or classical point, --n and
    --r ranges that end at most at 4, and CSV or JSON lines."""
    actions = {action.dest: action for action in SUBCOMMANDS["table"]._actions}
    law = draw(st.sampled_from(sorted(_LAWS)))
    style = STYLES[draw(st.sampled_from(sorted(STYLES)))]
    pairs = [("--dist", law), ("--format", draw(st.sampled_from(["csv", "json-lines"])))]
    for dest in [*_LAWS[law][1], *sorted(style), "n", "r"]:
        valid, _ = _tokens("table", actions[dest])
        pairs.append((actions[dest].option_strings[0], draw(st.sampled_from(valid))))
    return draw(st.permutations(pairs))


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "out"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_generated_argv_keeps_the_exit_code_contract(out, data):
    command, pairs, noisy = data.draw(_argv(out))
    spaced = [command] + [token for pair in pairs for token in pair]
    code, stdout, written, stderr = _run(spaced, out)
    assert code in (0, 1, 2, 3), (spaced, code, stderr)
    assert "Traceback" not in stderr
    assert noisy or "is not read by" not in stderr, (spaced, stderr)
    assert noisy or command != "table" or code == 0, (spaced, stderr)
    if code:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, (spaced, stderr)

    if all(value != "--" for _, value in pairs):
        joined = [command] + [f"{flag}={value}" for flag, value in pairs]
        assert _run(joined, out)[:3] == (code, stdout, written), (spaced, joined)

    if command == "table" and code == 0:
        _assert_rows_equal_eval(out, pairs, written if written is not None else stdout)


@settings(max_examples=100, deadline=None)
@given(pairs=_clean_table())
def test_every_clean_table_row_equals_eval(out, pairs):
    argv = ["table"] + [f"{flag}={value}" for flag, value in pairs]
    code, stdout, _, stderr = _run(argv, out)
    assert code == 0, (argv, stderr)
    _assert_rows_equal_eval(out, pairs, stdout)
