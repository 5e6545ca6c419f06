import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein.qcalc import QPoint, bracket_in_t, one_minus_bracket_power

from oracles import conjugate_bracket_in_t, one_minus_conjugate_in_t

RHOS = [F(1, 2), F(2, 3), F(3, 4), F(4, 3), F(3, 2), F(7, 5)]


def _random_point(rng):
    d = rng.choice([2, 3, 4])
    return QPoint(rng.choice(RHOS), rng.randrange(1, d), d)


def test_point_construction_and_consistency():
    p = QPoint(F(2, 3), 1, 2)
    assert p.q == F(4, 9)
    assert p.t == F(2, 3)
    assert p.x == F(1, 2)
    assert p.t**p.d == p.q**p.c


def test_bracket_values():
    p = QPoint(F(2, 3), 1, 2)
    assert p.X == F(3, 5)
    assert QPoint(F(2, 3), 0, 2).X == 0
    assert QPoint(F(2, 3), 2, 2).X == 1


def test_bracket_conjugates_values():
    p = QPoint(F(2, 3), 1, 2)
    assert (p.Xc, p.X1) == (F(2, 5), F(3, 5))
    # cross-check against q^(1-x) [x]_q
    assert p.Xc == (p.q / p.t) * p.X
    zero, one = QPoint(F(2, 3), 0, 2), QPoint(F(2, 3), 2, 2)
    assert (zero.Xc, zero.X1) == (0, 1)
    assert (one.Xc, one.X1) == (1, 0)


def test_held_brackets_equal_the_defining_quotients():
    """X = [x]_q, Xc = [x]_(1/q) and X1 = [1 - x]_q from (q^x - 1)/(q - 1)
    recomputed from (rho, c, d), for random q-points of either sign of c and
    for classical points, where each bracket is its q -> 1 limit."""
    rng = random.Random(61)
    for _ in range(60):
        rho, d = rng.choice(RHOS), rng.choice([1, 2, 3, 4])
        c = rng.randrange(-2 * d, 2 * d + 1)
        p, q = QPoint(rho, c, d), rho**d
        assert (p.q, p.t, p.x) == (q, rho**c, F(c, d))
        # q^x = rho^c, (1/q)^x = rho^-c and q^(1 - x) = rho^(d - c)
        assert p.X == (rho**c - 1) / (q - 1)
        assert p.Xc == (rho ** (-c) - 1) / (1 / q - 1)
        assert p.X1 == (rho ** (d - c) - 1) / (q - 1)
        x = F(rng.randrange(-9, 10), rng.randrange(1, 8))
        p = QPoint.classical(x)
        assert (p.q, p.X, p.Xc, p.X1) == (1, x, x, 1 - x)


def test_point_equality_hash_and_repr_are_those_of_rho_c_d():
    """The held values take no part in equality, hashing or the repr."""
    p = QPoint(F(2, 3), 1, 2)
    assert repr(p) == "QPoint(rho=Fraction(2, 3), c=1, d=2)"
    assert p == QPoint(F(4, 6), 1, 2) and hash(p) == hash((F(2, 3), 1, 2))
    assert p != QPoint(F(2, 3), 2, 4)
    classical = QPoint.classical(F(4, 14))
    assert repr(classical) == "QPoint(rho=None, c=2, d=7)"
    assert classical == QPoint(None, 2, 7) and hash(classical) == hash((None, 2, 7))
    assert {p: 1, classical: 2}[QPoint(F(2, 3), 1, 2)] == 1
    assert QPoint(rho=F(2, 3), c=1, d=2) == p
    for name in ("rho", "X", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, F(1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 12))
def test_a_classical_point_has_one_form(c, d, k):
    """(k c, k d) and c/d build one classical point: x is held in lowest terms,
    so the two are equal, with one hash, one repr and the same brackets."""
    p, same = QPoint(None, k * c, k * d), QPoint.classical(F(c, d))
    assert p == same and hash(p) == hash(same) and repr(p) == repr(same)
    assert (p.X, p.Xc, p.X1) == (same.X, same.Xc, same.X1) == (F(c, d), F(c, d), 1 - F(c, d))


def test_difference_rule_on_a_common_grid():
    rng = random.Random(19)
    for _ in range(40):
        rho = rng.choice(RHOS)
        d = rng.choice([2, 3, 4])
        c1 = rng.randrange(-4, 9)
        c2 = rng.randrange(-4, 9)
        lhs = QPoint(rho, c1 - c2, d).X
        rhs = QPoint(rho, c1, d).X - rho ** (c1 - c2) * QPoint(rho, c2, d).X
        assert lhs == rhs


def test_negation_and_inverse_base_rules():
    rng = random.Random(29)
    for _ in range(40):
        rho = rng.choice(RHOS)
        d = rng.choice([2, 3, 4])
        c = rng.randrange(1, 2 * d + 1)
        p = QPoint(rho, c, d)
        assert QPoint(rho, -c, d).X == -(rho ** (-c)) * p.X
        inverse_base = QPoint(1 / rho, c, d).X
        assert inverse_base == (p.q / p.t) * p.X
        assert p.Xc == inverse_base
        assert QPoint(rho, d - c, d).X == 1 - inverse_base == p.X1


def test_one_minus_power_scalar_and_laurent_agree():
    rng = random.Random(41)
    points = [_random_point(rng) for _ in range(5)]
    for p in points:
        for m in range(11):
            scalar, expansion = one_minus_bracket_power(p, m)
            assert expansion.substitute(p.t) == scalar


def test_one_minus_power_trivial_cases():
    p = QPoint(F(2, 3), 1, 2)
    scalar, expansion = one_minus_bracket_power(p, 0)
    assert scalar == 1 and expansion.substitute(p.t) == 1
    scalar1, _ = one_minus_bracket_power(p, 1)
    scalar2, _ = one_minus_bracket_power(p, 2)
    assert scalar2 == scalar1**2


def test_classical_mode_brackets():
    p = QPoint.classical(F(2, 7))
    assert p.is_classical
    assert p.q == 1
    assert (p.X, p.Xc, p.X1) == (F(2, 7), F(2, 7), F(5, 7))


def test_laurent_bracket_builders_evaluate_correctly():
    rng = random.Random(53)
    for _ in range(20):
        p = _random_point(rng)
        assert bracket_in_t(p.q).substitute(p.t) == p.X
        assert conjugate_bracket_in_t(p.q).substitute(p.t) == p.Xc
        assert one_minus_conjugate_in_t(p.q).substitute(p.t) == p.X1
