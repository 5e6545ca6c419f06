"""How the audit runner records each outcome, and the planted audit runs
that the runner's checks in ``tests/test_audit.py`` and ``tests/test_cli.py``
read.

``OUTCOMES`` maps a case id to (expectation class, evaluator, the record
each trial must give: status, lhs, rhs, difference).  ``planted_run`` plants
every row beside the registry as the "verbatim" variant of its id, with a
``Drawer(indices=())``, which draws no law, point or index and so spends no
random call, or with its drawer in ``DRAWERS``.  It runs the audit three times, once clean, once planted and
once planted through ``qbernstein audit --out``, and keeps what they give
for the rest of the session, so the checks share two triples' six runs.
"""

import contextlib
import functools
import io
import tempfile
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

from qbernstein import audit, cli, series
from qbernstein.audit import MAX_DRAWN_INDEX, AuditReport, CaseSkip, Drawer, IdentityCase
from qbernstein.distributions import CustomMoments, Poisson
from qbernstein.families import prob_qbernstein
from qbernstein.qcalc import QPoint
from qbernstein.rings import LogPoly


class _Incomparable:
    """A side whose comparison raises."""

    def __eq__(self, other):
        raise RuntimeError("no comparison between these sides")


class _Unshowable:
    """A side that compares but whose rendering raises."""

    def __str__(self):
        raise RuntimeError("no rendering of this side")


def _sides(lhs, rhs):
    """An evaluator that gives these two sides on every draw."""
    return lambda dist, p, order: (lhs, rhs)


def _skips(dist, p, order):
    raise CaseSkip("inadmissible draw")


def _one_route_twice(dist, p, order):
    point = QPoint(F(2, 3), 1, 2)
    return prob_qbernstein(Poisson(F(1)), 1, 3, point), prob_qbernstein(Poisson(F(1)), 1, 3, point)


OUTCOMES = {
    # both sides through one route: equal, with a zero difference
    "self": ("pass", _one_route_twice, ("PASS", "216/125", "216/125", "0")),
    "skip": ("record", _skips, ("SKIP", "-", "-", "-")),
    # sides compare as whole values; a difference of tuples of one shape is
    # taken entry by entry, and of two shapes is "-"
    "tuple-vs-scalar": ("record", _sides((F(1), F(2)), F(1)), ("FAIL", "(1 | 2)", "1", "-")),
    "lengths-differ": ("record", _sides((F(1), F(2)), (F(1), F(2), F(3))),
                       ("FAIL", "(1 | 2)", "(1 | 2 | 3)", "-")),
    "nested-equal": ("record", _sides((F(1), (F(2), F(3))), (F(1), (F(2), F(3)))),
                     ("PASS", "(1 | (2 | 3))", "(1 | (2 | 3))", "(0 | (0 | 0))")),
    "scalars-differ": ("pass", _sides(F(1), F(2)), ("FAIL", "1", "2", "-1")),
    # any exception but CaseSkip and MemoryError, raised by the evaluator or
    # by comparing, showing or subtracting its sides, is an ERROR record
    # that names it
    "value-error": ("pass", lambda dist, p, order: (CustomMoments((F(1), F(2))).mgf_series(8), F(0)),
                    ("ERROR", "-", "-", "ValueError: only 2 moments provided, order 8 requested")),
    "zero-division": ("pass", lambda dist, p, order: (F(1) / 0, F(0)),
                      ("ERROR", "-", "-", "ZeroDivisionError: Fraction(1, 0)")),
    "type-error": ("pass", lambda dist, p, order: (F(1) + "1", F(0)),
                   ("ERROR", "-", "-",
                    "TypeError: unsupported operand type(s) for +: 'Fraction' and 'str'")),
    "index-error": ("pass", lambda dist, p, order: ((F(1),)[1], F(0)),
                    ("ERROR", "-", "-", "IndexError: tuple index out of range")),
    "key-error": ("pass", lambda dist, p, order: ({}["r"], F(0)),
                  ("ERROR", "-", "-", "KeyError: 'r'")),
    "compare-raises": ("pass", _sides(_Incomparable(), F(0)),
                       ("ERROR", "-", "-", "RuntimeError: no comparison between these sides")),
    "show-raises": ("record", _sides(_Unshowable(), F(0)),
                    ("ERROR", "-", "-", "RuntimeError: no rendering of this side")),
    "series-orders": ("pass", _sides(series.Series([1, 2]), series.Series([1, 2, 3])),
                      ("ERROR", "-", "-", "ValueError: series order mismatch: 1 vs 2")),
    "logpoly-series": ("pass", _sides(LogPoly({1: 1}), series.Series([1])),
                       ("ERROR", "-", "-",
                        "TypeError: expected an exact scalar (Fraction or int), got LogPoly")),
    # a drawer that raises gives an ERROR record with no draw rendered; its
    # drawer is in DRAWERS, and the evaluator is never reached
    "drawer-raises": ("pass", _skips,
                      ("ERROR", "-", "-", "ValueError: moment sequence must start with 1")),
}

# The drawer of a row that does not draw by Drawer(indices=()): here a law
# the law refuses.
DRAWERS = {"drawer-raises": Drawer(law=((CustomMoments, (("moments", [(F(2),)]),)),), indices=())}

# (seed, trials, order) of each planted run: the runs whose expected passes
# hold at order 10 and at the least order the drawn indices admit.
RUNS = [(7, 2, 10), (2, 2, MAX_DRAWN_INDEX)]


class PlantedRun(NamedTuple):
    clean: AuditReport
    report: AuditReport  # the same run with every OUTCOMES row planted
    code: int  # what ``qbernstein audit --out`` returned on the planted run
    out: str
    err: str
    written: str  # what it wrote to its --out file


@functools.cache
def planted_run(seed: int, trials: int, order: int) -> PlantedRun:
    clean = audit.run_all(seed, trials, order)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(audit, "REGISTRY", audit.REGISTRY + [
            IdentityCase(case_id, "verbatim", "planted", expected,
                         DRAWERS.get(case_id, Drawer(indices=())), evaluate)
            for case_id, (expected, evaluate, _) in OUTCOMES.items()
        ])
        report = audit.run_all(seed, trials, order)
        path = Path(tmp) / "audit.jsonl"
        argv = ["audit", "--seed", str(seed), "--trials", str(trials), "--order", str(order)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(path)])
        written = path.read_text()
    return PlantedRun(clean, report, code, out.getvalue(), err.getvalue(), written)


def planted_runs() -> list:
    """(trials, order, planted run) of each triple of RUNS."""
    return [(trials, order, planted_run(seed, trials, order)) for seed, trials, order in RUNS]
