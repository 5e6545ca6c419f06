"""Which check catches which planted engine fault of ``tests/faults.py``: a
check has force only where a row of ``CAUGHT`` says so (mutation analysis:
DeMillo, Lipton and Sayward, 1978)."""

import functools
from fractions import Fraction as F

import pytest

from qbernstein.audit import run_all

from closed_forms import CLOSED_MGFS, mgf_oracle_misses
from faults import FAULTS, clear_caches, grid_failures
from oracles import UNEVEN_DENOMINATORS, check_against_reference, wrong_reads_under_shuffled_growth


def _assertion(check, *args) -> list:
    """The AssertionError ``check(*args)`` raises, or nothing."""
    try:
        check(*args)
    except AssertionError as error:
        return [error]
    return []


REFERENCE = [F(1), F(-2, 3), F(1, 2), F(0), F(5, 7)]

# Each check returns, for each part it checks, what it finds wrong there;
# on the sound engine it finds nothing in any part.
CHECKS = {
    "audit": lambda: [[
        r for r in run_all(42, 2, 8).expected_pass_failures() if r.status in ("FAIL", "ERROR")
    ]],
    "moment-grid": lambda: [grid_failures()],
    "series-reference": lambda: [
        _assertion(check_against_reference, REFERENCE, REFERENCE[::-1], F(3, 2), F(1, 3))
    ],
    **{f"mgf-oracle-{law.name}": lambda law=law, mgf=mgf: [mgf_oracle_misses(law, mgf)]
       for law, mgf in CLOSED_MGFS},
    "shuffled-growth": lambda: [wrong_reads_under_shuffled_growth(law)
                                for law in UNEVEN_DENOMINATORS],
}

# (fault, check, caught): caught, the check finds something wrong in every
# part it checks; not caught, in none.
CAUGHT = [
    *((fault, "audit", True) for fault in (
        "poisson-rule", "negbinomial-rule", "extend-pow", "minus-one-table", "minus-one-rescale",
        "miller-rescale", "series-pow", "series-mul", "series-log", "swapped-brackets",
    )),
    # the faults whose targets the grid cases read: the table's Bell
    # recurrence and read-out, its M^z rule (T2.2's lhs reads M^X1),
    # Series.log (P-LOG's), Series.pow and its rescale (T2.4's M^Xc and
    # T2.8's M^X1), and Series.__mul__ (T2.4's and T2.6's products)
    *((fault, "moment-grid", True) for fault in (
        "extend-pow", "minus-one-rescale", "minus-one-table", "series-log",
        "miller-rescale", "series-pow", "series-mul",
    )),
    # a one-short Series.exp fails no expected-pass record of the audit
    # above: only T3.1 reaches it (through bell_poly), at n - r = 0 in both
    # its draws there
    ("series-exp", "series-reference", True),
    # with the Miller kernel broken, Series.recip is too, so the oracle's
    # geometric and negative binomial M are wrong; the other four laws never
    # reach the kernel
    ("series-pow", "mgf-oracle-geometric", True),
    ("series-pow", "mgf-oracle-negbinomial", True),
    ("series-pow", "mgf-oracle-poisson", False),
    ("series-pow", "mgf-oracle-constant", False),
    ("series-pow", "mgf-oracle-binomial", False),
    ("series-pow", "mgf-oracle-bernoulli", False),
    ("table-over-d-k", "shuffled-growth", True),
]


@functools.cache
def _on_the_sound_engine(check: str) -> list:
    clear_caches()
    return CHECKS[check]()


@pytest.mark.parametrize(
    "fault, check, caught", CAUGHT, ids=[f"{fault}:{check}" for fault, check, _ in CAUGHT]
)
def test_a_planted_fault_is_caught_as_stated(monkeypatch, fault, check, caught):
    """The check finds nothing on the sound engine (run once per check), and
    with the fault planted finds what the row says.  The caches are cleared
    around the fault, so that no value it computed outlives it."""
    assert not any(_on_the_sound_engine(check))
    clear_caches()
    try:
        with monkeypatch.context() as mp:
            FAULTS[fault](mp)
            found = CHECKS[check]()
    finally:
        clear_caches()
    assert all(found) if caught else not any(found)
