"""The command-line contract under generated argv.

Each example builds an argv for one of the five subcommands from that
subcommand's flags.  Each value is drawn from valid tokens (signs and "p/q"
among them) or from edge and malformed ones ("1/0", "", " ", "3..1", +-257,
"-t", "-h", "--"), and :func:`qbernstein.cli.main` runs it in process.  On
every argv:

- ``main`` returns or exits with code 0, 1, 2 or 3, and raises nothing else;
- stderr holds no traceback, and a nonzero exit writes exactly one
  ``error:`` line;
- every value reads the same after a space as after "=" (save "--", which
  ends the options when it stands alone): the same exit code and output;
- on exit 0, each value ``table`` writes equals what ``eval`` prints for the
  family prob-qbernstein at the same law, point and indices.

Size bound: 150 examples, each run at most twice plus one ``eval`` per table
row.  A valid size is at most 5 (a trial count at most 257), a table range
ends at 4, an audit runs at most 2 trials at order 8 and a ``padic``
exponent is at most 3 in magnitude, so the test takes about 3 s.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.cli import _EVAL_FAMILIES, _LAWS, main

# tokens every flag may get: empty, blank, the help flag and the end of options
EDGE = ["", " ", "-h", "--"]
# kind -> (tokens that parse as the kind, edge and malformed tokens)
KINDS = {
    "rational": (["1", "2", "1/2", "-1/2", "3/2", "-3", "2/3"], ["0", "1/0", "x", "-", "-t"]),
    "int": (["1", "2", "3"], ["0", "-2", "257", "1/2"]),
    "base": (["2/3", "3/2", "1/2", "2"], ["1", "0", "-1/2"]),
    "degree": (["1", "2", "3"], ["0", "-1", "257"]),
    "size": (["0", "1", "2", "3", "5", "-1"], ["257", "-257", "1/2", "x", "-t"]),
    "range": (["0", "2", "0..3", "1..4"], ["3..1", "-1", "0..257", "x"]),
    "moments": (["1,1,2", "1,2,5,7,11", "1,-1/2,3"], ["1,1/0", "2,1", "1,", "-1"]),
    "expr": (
        ["t", "-t", "-[x]^2", "3*t^2 - [x]^1 + 1/2", "t^-2", "-t + 1", "[x]^3", "-1/2"],
        ["1/0*t", "t^257", "[x]^-1", "t t", "+", "t@"],
    ),
    "dist": (sorted(_LAWS), ["nope"]),
    "family": (sorted(_EVAL_FAMILIES), ["nope"]),
    "kind": (["mgf", "log-mgf", "qbernstein-gf"], ["nope"]),
    "op": (["volkenborn", "fermionic"], ["nope"]),
    "format": (["csv", "json-lines", "latex"], ["nope"]),
    "seed": (["42", "1", "-3", "257"], ["1/2", "x"]),
    "trials": (["1", "2"], ["0", "-1", "257", "x"]),
    "order": (["6", "8"], ["5", "0", "-3", "257", "x"]),
}
LAW_FLAGS = {"alpha": "rational", "p1": "rational", "nbar": "int", "a": "int",
             "value": "rational", "moments": "moments"}
POINT_FLAGS = {"rho": "base", "c": "size", "d": "degree", "x": "rational"}
# the flags of an eval family's arguments, by name
FAMILY_FLAGS = {"r": "size", "n": "size", "m": "size", "q": "rational", "u": "rational",
                "arg": "rational", "order_param": "rational"}


@st.composite
def _value(draw, kind, needed, noisy):
    """A token of ``kind``, or None for an absent flag: valid when the flag is
    needed, mostly absent when it is not, and now and then edge or absent
    regardless when ``noisy``."""
    roll = draw(st.integers(0, 9))
    valid, edge = KINDS[kind]
    if noisy and roll == 1:
        return draw(st.sampled_from(edge + EDGE))
    if (noisy and roll == 0) or (not needed and roll < 7):
        return None
    return draw(st.sampled_from(valid))


def _flag(name):
    return "--" + name.replace("_", "-")


@st.composite
def _law(draw, needed, noisy):
    dist = draw(_value("dist", needed, noisy))
    needs = _LAWS[dist][1] if dist in _LAWS else ()
    pairs = [("--dist", dist)]
    for name, kind in LAW_FLAGS.items():
        pairs.append((_flag(name), draw(_value(kind, name in needs, noisy))))
    return pairs


@st.composite
def _point(draw, needed, noisy):
    styles = ["grid", "classical"] + (["both", "none"] if noisy else [])
    style = draw(st.sampled_from(styles)) if needed else "none"
    wanted = {"grid": {"rho", "c", "d"}, "classical": {"x"}, "both": set(POINT_FLAGS),
              "none": set()}[style]
    return [
        (_flag(name), draw(_value(kind, name in wanted, noisy)))
        for name, kind in POINT_FLAGS.items()
        if noisy or name in wanted
    ]


def _flags(draw, spec, noisy):
    return [
        (_flag(name), draw(_value(kind, needed, noisy)))
        for name, (kind, needed) in spec.items()
    ]


@st.composite
def _argv(draw, out):
    """(subcommand, its (flag, value) pairs in any order).  Half the argvs are
    clean, every needed flag given a valid value and no stray point flag; the
    others are noisy, with edge values, absent flags and an --out that names a
    file in a missing directory."""
    command = draw(st.sampled_from(["table", "eval", "series", "padic", "audit"]))
    noisy = draw(st.booleans())
    if command == "table":
        pairs = draw(_law(draw(st.booleans()), noisy)) + draw(_point(True, noisy))
        pairs += _flags(draw, {
            "n": ("range", True), "r": ("range", True), "format": ("format", False)}, noisy)
    elif command == "eval":
        family = draw(_value("family", True, noisy))
        names = _EVAL_FAMILIES[family][1] if family in _EVAL_FAMILIES else ()
        pairs = [("--family", family), *draw(_law("dist" in names, noisy))]
        pairs += draw(_point("point" in names, noisy))
        pairs += _flags(
            draw, {name: (kind, name in names) for name, kind in FAMILY_FLAGS.items()}, noisy
        )
    elif command == "series":
        pairs = draw(_law(True, noisy)) + draw(_point(True, noisy)) + _flags(draw, {
            "kind": ("kind", False), "r": ("size", True), "order": ("size", True),
            "format": ("format", False)}, noisy)
    elif command == "padic":
        pairs = _flags(
            draw, {"op": ("op", True), "q": ("rational", True), "expr": ("expr", True)}, noisy
        )
    else:
        pairs = _flags(draw, {"seed": ("seed", False), "trials": ("trials", True),
                              "order": ("order", True), "format": ("format", False)}, noisy)
    if command in ("table", "series", "audit") and draw(st.booleans()):
        outs = [str(out)] + ([str(out.parent / "missing" / "out"), "", "--"] if noisy else [])
        pairs.append(("--out", draw(st.sampled_from(outs))))
    pairs = draw(st.permutations([pair for pair in pairs if pair[1] is not None]))
    return command, pairs


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


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "out"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_generated_argv_keeps_the_exit_code_contract(out, data):
    command, pairs = data.draw(_argv(out))
    spaced = [command] + [token for pair in pairs for token in pair]
    code, stdout, written, stderr = _run(spaced, out)
    assert code in (0, 1, 2, 3), (spaced, code, stderr)
    assert "Traceback" not in stderr
    if code:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, (spaced, stderr)

    if all(value != "--" for _, value in pairs):
        joined = [command] + [f"{flag}={value}" for flag, value in pairs]
        assert _run(joined, out)[:3] == (code, stdout, written), (spaced, joined)

    if command == "table" and code == 0:
        text = written if written is not None else stdout
        point_and_law = [f"{flag}={value}" for flag, value in pairs
                         if flag not in ("--n", "--r", "--format", "--out")]
        if "--dist" not in dict(pairs):
            point_and_law += ["--dist=constant", "--value=1"]
        for n, r, printed in _table_rows(pairs, text):
            argv = ["eval", "--family=prob-qbernstein", f"--n={n}", f"--r={r}", *point_and_law]
            assert _run(argv, out)[:2] == (0, f"{printed}\n"), (spaced, argv)
