"""Each family of ``qbernstein.families`` against a reference computed
another way: ``stirling2`` against counted set partitions and sympy;
``bell_poly``, ``higher_bernoulli`` and ``euler_poly`` also against sympy;
``bell_poly`` and each Appell-type family, over e^v or the law's M, against its
generating function in Fractions (``oracles.APPELL``); ``prob_stirling2``
against its closed forms at a Bernoulli and a Poisson law; every route to
B^Y_(r,n)(x|q), ``qbernstein`` and ``prob_bernoulli_higher`` at r = 0 against
``oracles.reference_qbernstein_gf``, (v X)^r / r! M^X1 by Miller's recurrence
in Fractions; and ``prob_qbernstein_laurent`` in t against Horner's rule in
the Laurent ring over the Bell numbers of the oracle M."""

import importlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein import _EXPORTS
from qbernstein.audit import RHO_GRID
from qbernstein.distributions import (
    Bernoulli,
    Constant,
    CustomMoments,
    Poisson,
    Uniform01,
)
from qbernstein.families import (
    bell_poly,
    bernstein_classical,
    euler_poly,
    higher_bernoulli,
    prob_bernoulli_higher,
    prob_qbernstein,
    prob_qbernstein_laurent,
    prob_stirling2,
    qbernstein,
    stirling2,
)
from qbernstein.qcalc import QPoint, bracket_in_t

from oracles import (
    APPELL,
    SIX_LAWS,
    AppellDraw,
    appell_misses,
    custom_law,
    laurent_misses,
    qbernstein_route_misses,
    reference_qbernstein_gf,
    set_partition_count,
)

POINT = QPoint(F(2, 3), 1, 2)


def test_stirling2_against_brute_force_partitions():
    for n in range(9):
        for m in range(n + 2):
            assert stirling2(n, m) == set_partition_count(n, m)


def test_stirling2_edge_values():
    assert stirling2(4, 2) == 7
    for n in range(1, 10):
        assert stirling2(n, n) == 1
        assert stirling2(n, 0) == 0


def _sympy_rational(value) -> F:
    return F(int(value.p), int(value.q))


def test_classical_families_against_sympy():
    """sympy computes these numbers and polynomials by its own routes."""
    import sympy
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(13):
        for m in range(13):
            assert stirling2(n, m) == int(stirling(n, m))
    for n in range(12):
        for x in (F(0), F(1, 2), F(-2, 3), F(3)):
            sx = sympy.Rational(x.numerator, x.denominator)
            assert bell_poly(n, x) == _sympy_rational(sympy.bell(n, sx))
            assert higher_bernoulli(n, 1, x) == _sympy_rational(sympy.bernoulli(n, sx))
            assert euler_poly(n, x) == _sympy_rational(sympy.euler(n, sx))


def test_prob_stirling2_first_value_is_the_mean():
    for law in SIX_LAWS:
        assert prob_stirling2(law, 1, 1) == law.moment(1)


def test_prob_stirling2_is_lower_triangular():
    for law in SIX_LAWS:
        for m in range(1, 7):
            for n in range(m):
                assert prob_stirling2(law, n, m) == 0


def test_prob_stirling2_against_closed_forms():
    """Bernoulli: M - 1 = p (e^v - 1), so the value is p^m S(n, m).  Poisson:
    M - 1 = e^(alpha (e^v - 1)) - 1, and composing the two exponential
    generating functions gives the sum over j of alpha^j S(n, j) S(j, m).
    Queried in shuffled order at laws no other test uses, so the powers of
    M - 1 are built on demand from whatever prefix is already there."""
    alpha, p1 = F(5, 7), F(2, 9)
    poisson, bernoulli = Poisson(alpha), Bernoulli(p1)
    pairs = [(n, m) for n in range(9) for m in range(n + 2)]
    random.Random(88).shuffle(pairs)
    s = set_partition_count
    for n, m in pairs:
        assert prob_stirling2(bernoulli, n, m) == p1**m * s(n, m)
        assert prob_stirling2(poisson, n, m) == sum(
            alpha**j * s(n, j) * s(j, m) for j in range(n + 1)
        )


def test_prob_bernoulli_higher_at_r_0_reads_moments_through_n():
    """At r = 0 the value is n! [v^n] M^z, which needs M only through n: on a
    law with exactly n + 1 moments it equals the Fraction reference of
    B^Y_(0,n) with z the bracket of 1 - x.  It reads no mean, so a law of
    mean zero has a value there."""
    p = QPoint(F(1, 2), 1, 2)
    for n in range(5):
        law = custom_law(n + 1)
        reference = math.factorial(n) * reference_qbernstein_gf(law, 0, p, n)[n]
        assert prob_bernoulli_higher(law, n, 0, p.X1) == reference
    assert prob_bernoulli_higher(CustomMoments((1, 1, 2)), 2, 0, p.X1) == F(10, 9)
    dead = Constant(F(0))
    assert prob_bernoulli_higher(dead, 0, 0, F(1)) == 1
    assert prob_bernoulli_higher(dead, 2, 0, F(1)) == 0


def test_bernstein_classical_values():
    assert bernstein_classical(1, 2, F(1, 2)) == F(1, 2)
    for n in range(5):
        assert bernstein_classical(0, n, F(0)) == 1
    assert sum(bernstein_classical(r, 3, F(2, 7)) for r in range(4)) == 1


def test_qbernstein_values():
    assert qbernstein(1, 2, POINT) == F(18, 25)
    assert qbernstein(3, 3, POINT) == POINT.X**3


def test_prob_qbernstein_examples():
    assert prob_qbernstein(Bernoulli(F(1, 2)), 0, 1, POINT) == F(3, 10)
    for law in SIX_LAWS:
        assert prob_qbernstein(law, 4, 4, POINT) == POINT.X**4


@pytest.mark.parametrize("q", [F(2, 5), F(81, 256), F(7, 4), F(3, 2)])
def test_prob_qbernstein_laurent_is_the_ring_horner_coefficientwise(q):
    """The integer Horner in s = 1/t over the table's Bell rows equals,
    t-exponent by t-exponent, the Horner in the falling-factorial basis run in
    the Laurent ring over the Bell numbers of the oracle M, at q below and
    above 1, so that b - a takes both signs."""
    for law in SIX_LAWS + [Constant(F(2)), Constant(F(0)), custom_law(11)]:
        assert laurent_misses(law, q, 10) == [], law


# custom_law(14): v/(M - 1) reads M through n + 1 = 13
REFERENCE_LAWS = SIX_LAWS + [Constant(F(0)), Constant(F(1)), Constant(F(2)), custom_law(14)]
# the audit's bases, and one further base on each side of 1
RHOS = RHO_GRID + [F(1, 3), F(5, 2)]


@st.composite
def value_points(draw):
    """A q-point with rho in RHOS and 0 <= c <= 2d, or a classical point with
    x in [-3, 3]."""
    if draw(st.booleans()):
        return QPoint.classical(draw(st.fractions(-3, 3, max_denominator=9)))
    d = draw(st.integers(1, 4))
    return QPoint(draw(st.sampled_from(RHOS)), draw(st.integers(0, 2 * d)), d)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REFERENCE_LAWS), value_points(), st.integers(0, 12))
def test_every_route_matches_the_fraction_reference(law, p, n):
    """At every r <= n, the whole generating function, the table's read of
    its coefficient n, the Laurent route at t and the closed form of
    qbernstein each equal the Fraction reference (v X)^r / r! M^X1."""
    assert qbernstein_route_misses(law, p, n) == []


def test_prob_qbernstein_laurent_trivial_forms():
    q = F(4, 9)
    one = Constant(F(1))
    for r in range(4):
        assert prob_qbernstein_laurent(one, r, r, q) == bracket_in_t(q) ** r
    assert prob_qbernstein_laurent(Uniform01(), 0, 0, q) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.builds(
        AppellDraw,
        law=st.sampled_from(REFERENCE_LAWS),
        x=st.integers(-30, 30).map(lambda k: F(k, 6)),
        order=st.integers(-12, 12).map(lambda k: F(k, 4)),
        u=st.integers(-18, 30).filter(lambda k: k != 6).map(lambda k: F(k, 6)),
        r=st.integers(0, 3),
    ),
    st.integers(0, 12),
)
def test_every_appell_family_matches_its_generating_function(a, n):
    """At every k <= n, each row of APPELL equals k! times coefficient k of
    its generating function in Fractions, at orders of either sign and u on
    both sides of 1; at a law of mean zero only r = 0 has a series."""
    assert appell_misses(a, n) == []


# each family that is not a row of APPELL -> the check that holds it to its
# reference, as module::function of tests/
COVERED_ELSEWHERE = {
    "bernstein_classical": "test_families::test_bernstein_classical_values",
    "prob_qbernstein": "oracles::qbernstein_route_misses",
    "prob_qbernstein_gf": "oracles::qbernstein_route_misses",
    "prob_qbernstein_laurent": "oracles::laurent_misses",
    "prob_stirling2": "test_sympy_oracles::test_prob_stirling2_is_sympys_partial_bell_polynomial",
    "qbernstein": "oracles::qbernstein_route_misses",
    "stirling2": "test_families::test_stirling2_against_brute_force_partitions",
}


def test_every_family_is_a_row_or_names_its_check():
    """Each family the package exports is a row of APPELL or a key of
    COVERED_ELSEWHERE, and not both, so a new family lands with its
    reference; each check named there exists."""
    assert sorted([*APPELL, *COVERED_ELSEWHERE]) == sorted(_EXPORTS["families"])
    for check in COVERED_ELSEWHERE.values():
        module, name = check.split("::")
        assert callable(getattr(importlib.import_module(module), name, None)), check
