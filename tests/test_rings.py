import random
from fractions import Fraction as F

import pytest

from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Distribution,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
)
from qbernstein.qcalc import QPoint
from qbernstein.rings import (
    Laurent,
    LogPoly,
    Poly,
    falling_factorial,
    laurent_x_derivation,
)
from qbernstein.series import Series

from oracles import is_log_free, min_exponent, random_fraction


def test_falling_factorial_values():
    assert falling_factorial(F(1, 2), 2) == F(-1, 4)
    assert falling_factorial(F(7, 3), 0) == 1
    assert falling_factorial(Poly.x(), 0) == 1
    assert falling_factorial(5, 3) == 60


def test_falling_factorial_composition():
    rng = random.Random(11)
    for _ in range(50):
        z = random_fraction(rng)
        a = rng.randrange(0, 9)
        b = rng.randrange(0, 9)
        assert falling_factorial(z, a + b) == falling_factorial(
            z, a
        ) * falling_factorial(z - a, b)


def _random_poly(rng):
    return Poly([random_fraction(rng) for _ in range(rng.randrange(0, 5))])


def _random_laurent(rng):
    return Laurent(
        {rng.randint(-4, 4): random_fraction(rng) for _ in range(rng.randrange(0, 5))}
    )


def _random_logpoly(rng):
    return LogPoly(
        {rng.randint(-3, 3): random_fraction(rng) for _ in range(rng.randrange(0, 4))}
    )


def _random_log_laurent(rng):
    return Laurent(
        {rng.randint(-3, 3): _random_logpoly(rng) for _ in range(rng.randrange(0, 4))}
    )


@pytest.mark.parametrize(
    "maker",
    [
        lambda rng: random_fraction(rng),
        _random_poly,
        _random_laurent,
        _random_logpoly,
        _random_log_laurent,
    ],
    ids=["fraction", "poly", "laurent", "logpoly", "laurent-logpoly"],
)
def test_ring_axioms(maker):
    rng = random.Random(23)
    for _ in range(40):
        a, b, c = maker(rng), maker(rng), maker(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == 0 * a


SCALARS = (3, F(-2, 5))


@pytest.mark.parametrize(
    "maker, constant, scalars",
    [
        (_random_poly, Poly.constant, SCALARS),
        (_random_logpoly, lambda c: LogPoly({0: c}), SCALARS),
        (_random_laurent, lambda c: Laurent({0: c}), SCALARS + (LogPoly({1: 2, 0: 4}),)),
    ],
    ids=["poly", "logpoly", "laurent"],
)
def test_scalars_act_as_constant_terms(maker, constant, scalars):
    rng = random.Random(31)
    for _ in range(20):
        x = maker(rng)
        for c in scalars:
            assert x + c == c + x
            assert x * c == c * x
            assert c - x == -(x - c)
            assert constant(c) == c
    assert type(x)() == 0 and constant(0) == 0


def test_renderings():
    assert str(Laurent({2: LogPoly({1: 3}), -1: F(1, 2)})) == "1/2*t^-1 + (3*L^1)*t^2"
    assert str(LogPoly({-1: F(5, 4), 0: 2})) == "5/4*L^-1 + 2"
    assert str(Poly([1, 0, F(-2, 3)])) == "1 + -2/3*b^2"
    assert repr(Poly([1, 0, F(-2, 3)])) == (
        "Poly([Fraction(1, 1), Fraction(0, 1), Fraction(-2, 3)])"
    )
    assert str(Laurent()) == "0"
    names = {"Fraction": F, "Laurent": Laurent, "LogPoly": LogPoly, "Series": Series}
    for value in (
        Series([F(1), F(0), F(-2, 3)]),
        Laurent({2: LogPoly({1: 3}), -1: F(1, 2)}),
        LogPoly({-1: F(5, 4), 0: 2}),
    ):
        assert eval(repr(value), names) == value


def test_poly_trims_and_degree_sentinel():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Poly([]).degree == -1
    assert Poly([0, 0]).degree == -1
    assert Poly([0, 0, 5]).degree == 2


def test_poly_evaluation_matches_expansion():
    p = Poly([F(1), F(-2), F(3)])
    v = F(5, 7)
    assert p(v) == 1 - 2 * v + 3 * v * v
    # evaluation at a Laurent value lands in Laurent
    lau = Laurent({1: F(2), -1: F(1, 3)})
    assert p(lau) == 1 - 2 * lau + 3 * lau * lau


def test_poly_scalar_equality():
    assert Poly([F(3)]) == F(3)
    assert Poly([]) == 0
    assert Poly([0, 1]) != F(1)


def test_laurent_stores_no_zeros_and_allows_negative_exponents():
    lau = Laurent({3: F(0), -2: F(5), 0: F(1)})
    assert set(lau.terms) == {-2, 0}
    assert min_exponent(lau) == -2
    assert (lau - lau).terms == {}


def test_laurent_evaluation_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        f, g = _random_laurent(rng), _random_laurent(rng)
        rho = F(rng.randint(1, 6), rng.randint(1, 6))
        if rho in (0, 1):
            rho = F(2, 3)
        t = rho ** rng.randint(1, 3)
        assert (f * g).substitute(t) == f.substitute(t) * g.substitute(t)
        assert (f + g).substitute(t) == f.substitute(t) + g.substitute(t)


def test_logpoly_is_purely_formal():
    v = LogPoly({1: F(1, 2), -1: F(3)})
    assert not is_log_free(v)
    assert v * v == LogPoly({2: F(1, 4), 0: F(3), -2: F(9)})
    assert is_log_free(LogPoly({0: F(7)}))
    assert LogPoly({0: F(7)}) == F(7)
    assert LogPoly() == 0


def test_logpoly_scales_laurent_coefficients():
    lau = Laurent({2: F(3), -1: F(1, 2)})
    scaled = lau * LogPoly({1: F(1)})
    assert scaled == Laurent({2: LogPoly({1: F(3)}), -1: LogPoly({1: F(1, 2)})})
    # same result regardless of operand order
    assert LogPoly({1: F(1)}) * lau == scaled


def test_laurent_x_derivation_examples():
    assert laurent_x_derivation(Laurent({2: F(1)})) == Laurent({2: LogPoly({1: 2})})
    assert laurent_x_derivation(Laurent({0: F(7)})) == Laurent()
    assert laurent_x_derivation(Laurent({-1: F(3)})) == Laurent(
        {-1: LogPoly({1: -3})}
    )


def test_laurent_x_derivation_is_a_derivation():
    rng = random.Random(77)
    for _ in range(25):
        f, g = _random_laurent(rng), _random_laurent(rng)
        product_rule = laurent_x_derivation(f) * g + f * laurent_x_derivation(g)
        assert laurent_x_derivation(f * g) == product_rule
        assert laurent_x_derivation(f + g) == laurent_x_derivation(
            f
        ) + laurent_x_derivation(g)


def test_immutability():
    p = Poly([1])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    lau = Laurent({0: F(1)})
    with pytest.raises(AttributeError):
        lau.terms = {}


# One value of every kind the package freezes, and a field it holds.
FROZEN = {
    "series": (Series([1, F(1, 2)]), "nums"),
    "logpoly": (LogPoly({-1: F(2), 1: F(1)}), "terms"),
    "laurent": (Laurent({0: LogPoly({1: F(1)}), 2: F(3)}), "terms"),
    "poly": (Poly([1, 2]), "terms"),
    "poisson": (Poisson(F(2, 3)), "alpha"),
    "bernoulli": (Bernoulli(F(1, 3)), "p1"),
    "binomial": (Binomial(4, F(2, 5)), "trials"),
    "geometric": (Geometric(F(1, 2)), "p1"),
    "negbinomial": (NegBinomial(3, F(3, 5)), "successes"),
    "uniform01": (Uniform01(), "_key"),
    "constant": (Constant(F(5, 2)), "value"),
    "custom": (CustomMoments((F(1), F(1, 2))), "moments"),
    "qpoint": (QPoint(F(2, 3), 1, 2), "rho"),
    "qpoint-classical": (QPoint.classical(F(2, 7)), "X"),
}
UNHASHABLE = {"series", "logpoly", "laurent", "poly"}


def _law_kinds(cls=Distribution):
    return {k for sub in cls.__subclasses__() for k in (sub, *_law_kinds(sub))}


def test_the_frozen_values_cover_every_law_kind():
    laws = {k for k in _law_kinds() if k.__module__ == Distribution.__module__}
    assert laws <= {type(value) for value, _ in FROZEN.values()}


@pytest.mark.parametrize("kind", FROZEN)
def test_values_refuse_assignment_and_deletion(kind):
    """One base freezes every value: setting or deleting a held field or a
    new name raises AttributeError with one message and leaves the value as
    it was; the rings and Series, which define their own equality, stay
    unhashable."""
    value, field = FROZEN[kind]
    held = getattr(value, field)
    for name in (field, "other"):
        message = f"{type(value).__name__} is immutable: cannot set or delete {name!r}"
        with pytest.raises(AttributeError) as setting:
            setattr(value, name, F(1))
        with pytest.raises(AttributeError) as deleting:
            delattr(value, name)
        assert str(setting.value) == str(deleting.value) == message
    assert getattr(value, field) is held and not hasattr(value, "other")
    if kind in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        hash(value)
