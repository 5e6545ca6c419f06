"""Which check catches which planted engine fault of ``tests/faults.py``, each
a one-line edit of an engine function's source: a check has force only where
a row of ``CAUGHT`` says so (mutation analysis: DeMillo, Lipton and Sayward,
1978), and every fault has a row that catches it."""

import functools
import itertools
from fractions import Fraction as F

import pytest

from qbernstein import series
from qbernstein.audit import run_all
from qbernstein.distributions import Constant
from qbernstein.padic import fermionic, volkenborn
from qbernstein.qcalc import QPoint

from closed_forms import CLOSED_MGFS, mgf_oracle_misses
from faults import FAULTS, clear_caches, grid_failures, plant
from oracles import (
    UNEVEN_DENOMINATORS,
    AppellDraw,
    appell_misses,
    check_against_reference,
    custom_law,
    fermionic_partial_sum,
    laurent_misses,
    partial_sum_misses,
    qbernstein_route_misses,
    six_laws,
    volkenborn_partial_sum,
    wrong_reads_under_shuffled_growth,
)


def _assertion(check, *args) -> list:
    """The AssertionError ``check(*args)`` raises, or nothing."""
    try:
        check(*args)
    except AssertionError as error:
        return [error]
    return []


REFERENCE = [F(1), F(-2, 3), F(1, 2), F(0), F(5, 7)]


def _misses(find, cases) -> int:
    """The misses ``find`` lists over ``cases``, a division by zero or a
    refused series one miss.  The checks below build their laws and points
    anew: a law holds its table and a point its brackets from the moment it
    is built, so those built before a fault is planted would hide it."""
    misses = 0
    for case in cases:
        try:
            misses += len(find(*case))
        except (ZeroDivisionError, ValueError):
            misses += 1
    return misses


def _laws() -> list:
    return six_laws() + [Constant(F(0)), Constant(F(1)), Constant(F(2)), custom_law(11)]


# Each check returns, for each part it checks, what it finds wrong there;
# on the sound engine it finds nothing in any part.
CHECKS = {
    "audit": lambda: [[
        r for r in run_all(42, 2, 8).expected_pass_failures() if r.status in ("FAIL", "ERROR")
    ]],
    # P-LOG, T2.2, T2.3, T2.6, T2.7 and T2.8 corrected and T2.4 verbatim on
    # all 144 grid laws; by the certificate beside the grid in faults.py,
    # holding there proves each identity on every law at its indices
    "moment-grid": lambda: [grid_failures()],
    "series-reference": lambda: [
        _assertion(check_against_reference, REFERENCE, REFERENCE[::-1], F(3, 2), F(1, 3))
    ],
    # every route to B^Y_(r,n)(x|q), 0 <= r <= n <= 6
    "family-reference": lambda: [_misses(qbernstein_route_misses, itertools.product(
        _laws(), [QPoint(F(3, 2), 1, 3), QPoint(F(2, 5), 2, 3), QPoint.classical(F(2, 5))],
        range(7)))],
    # every Appell-type family at k <= 8, (x, order, u, r) at an order of
    # each sign and u on each side of 1 in turn
    "appell-reference": lambda: [_misses(appell_misses, (
        (AppellDraw(law, *draw), 8) for law, draw in zip(_laws(), itertools.cycle(
            [(F(2, 3), F(-3, 2), F(5, 2), 2), (F(-7, 4), F(1, 3), F(-1, 3), 1)]))))],
    # the Laurent route at q = 2/5, r <= n <= 6
    "laurent-reference": lambda: [_misses(laurent_misses, ((law, F(2, 5), 6) for law in _laws()))],
    **{f"mgf-oracle-{law.name}": lambda law=law, mgf=mgf: [mgf_oracle_misses(law, mgf)]
       for law, mgf in CLOSED_MGFS},
    "shuffled-growth": lambda: [wrong_reads_under_shuffled_growth(law)
                                for law in UNEVEN_DENOMINATORS],
    # the 5-adic partial sums of each operator's rule of t^beta, beta <= 3,
    # at q = 6: one part per beta
    **{f"5-adic-{name}": lambda integral=integral, partial=partial: [
        partial_sum_misses(integral, partial, beta) for beta in range(4)]
       for name, integral, partial in (("bosonic", volkenborn, volkenborn_partial_sum),
                                       ("fermionic", fermionic, fermionic_partial_sum))},
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
    # the fixed-input Fraction reference catches each fault of series.py; a
    # one-short Series.exp fails no expected-pass record of the audit above
    # (T3.1 reads it through bell_poly, at n - r = 0 in both its draws
    # there), and appell-reference below catches it through bell_poly too
    *((fault, "series-reference", True) for fault in (
        "miller-rescale", "series-pow", "series-mul", "series-log", "series-exp",
    )),
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
    # each fault of the table's M^z, Bell rows and D_k, and of the point's
    # brackets, moves some route away from the Fraction reference: the
    # brackets and the Bell rows only the Laurent route, which reads X1 from
    # q and t alone
    *((fault, "family-reference", True) for fault in (
        "extend-pow", "minus-one-table", "minus-one-rescale", "table-over-d-k",
        "swapped-brackets",
    )),
    # the Series kernels the families run (bell_poly's exp refuses its
    # argument under miller-rescale), a grown table whose M at a lower order
    # is not the prefix of its M at a higher one, and the Euler prefactor,
    # which the audit and the grid miss: T2.4 reads prob_euler on both sides
    *((fault, "appell-reference", True) for fault in (
        "miller-rescale", "series-pow", "series-mul", "series-exp", "table-over-d-k",
        "euler-prefactor",
    )),
    ("euler-prefactor", "audit", False),
    ("euler-prefactor", "moment-grid", False),
    # the Bell numbers of the oracle M catch each fault of the table's Bell
    # rows and D_k and of the laws' moment rules
    *((fault, "laurent-reference", True) for fault in (
        "poisson-rule", "negbinomial-rule", "minus-one-table", "minus-one-rescale",
        "table-over-d-k",
    )),
    # no expected-pass case of the audit reads a p-adic integral (C2.1, C3.2
    # and C3.3 are record cases), so only the partial sums catch these
    ("padic-bosonic-rule", "audit", False),
    ("padic-fermionic-rule", "audit", False),
    ("padic-bosonic-rule", "5-adic-bosonic", True),
    ("padic-fermionic-rule", "5-adic-fermionic", True),
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
            plant(mp, *FAULTS[fault])
            found = CHECKS[check]()
    finally:
        clear_caches()
    assert all(found) if caught else not any(found)


def test_every_fault_is_caught_and_every_row_names_a_fault_and_a_check(monkeypatch):
    """Each fault has a check that catches it, and each row of CAUGHT names a
    fault and a check that exist.  An edit whose old text a function holds
    no times or twice fails, naming the function."""
    assert {fault for fault, _, caught in CAUGHT if caught} == set(FAULTS)
    assert all(fault in FAULTS and check in CHECKS for fault, check, _ in CAUGHT)
    for old in ("no such text", "held"):
        with pytest.raises(AssertionError, match="^_extend holds"):
            plant(monkeypatch, (series,), series._extend, old, "")
