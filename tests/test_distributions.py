import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbernstein import distributions
from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    Constant,
    CustomMoments,
    Geometric,
    MgfTable,
    NegBinomial,
    Poisson,
    Uniform01,
)
from qbernstein.series import Series, exp_series, extend_pow

from oracles import (
    bernoulli_moment,
    binomial_moment,
    geometric_moment_enclosure,
    mgf_oracle,
    negbinomial_moment_enclosure,
    touchard,
    uniform_moment,
)

ALL_LAWS = [
    Poisson(F(2, 3)),
    Bernoulli(F(1, 3)),
    Binomial(4, F(2, 5)),
    Geometric(F(1, 2)),
    NegBinomial(3, F(3, 5)),
    Uniform01(),
    Constant(F(5, 2)),
    CustomMoments((F(1), F(1, 2), F(2), F(3), F(10))),
]


def test_uniform_mgf_values():
    assert Uniform01().mgf_series(3) == Series([F(1), F(1, 2), F(1, 6), F(1, 24)])


def test_bernoulli_mgf_structure():
    p1 = F(2, 7)
    s = Bernoulli(p1).mgf_series(6)
    assert s.coeffs[0] == 1
    e = exp_series(F(1), 6)
    for n in range(1, 7):
        assert s.coeffs[n] == p1 * e.coeffs[n]


def test_constant_one_is_the_exponential():
    assert Constant(F(1)).mgf_series(8) == exp_series(F(1), 8)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda d: d.name)
def test_mgf_constant_term_is_one(law):
    assert law.mgf_series(4).coeffs[0] == 1
    assert law.moment(0) == 1


def test_poisson_moments_match_touchard_recurrence():
    for alpha in (F(2, 3), F(1), F(7, 4)):
        law = Poisson(alpha)
        for n in range(13):
            assert law.moment(n) == touchard(n, alpha)
    assert Poisson(F(2, 3)).moment(2) == F(2, 3) + F(4, 9)


def test_bernoulli_moments():
    law = Bernoulli(F(3, 7))
    for n in range(13):
        assert law.moment(n) == bernoulli_moment(F(3, 7), n)


def test_binomial_moments_match_pmf_sum():
    law = Binomial(5, F(2, 7))
    for n in range(13):
        assert law.moment(n) == binomial_moment(5, F(2, 7), n)


def test_uniform_moments():
    law = Uniform01()
    for n in range(13):
        assert law.moment(n) == uniform_moment(n)


def test_geometric_moments_lie_in_partial_sum_enclosures():
    law = Geometric(F(1, 2))
    assert law.moment(1) == 2
    for n in range(13):
        value = law.moment(n)
        for eps in (F(1, 10**10), F(1, 10**20), F(1, 10**30)):
            partial, bound = geometric_moment_enclosure(F(1, 2), n, eps)
            assert bound < eps
            assert partial <= value <= partial + bound


def test_negbinomial_moments_lie_in_partial_sum_enclosures():
    law = NegBinomial(2, F(2, 3))
    for n in range(13):
        value = law.moment(n)
        for eps in (F(1, 10**10), F(1, 10**25)):
            partial, bound = negbinomial_moment_enclosure(2, F(2, 3), n, eps)
            assert bound < eps
            assert partial <= value <= partial + bound


def test_binomial_is_a_power_of_bernoulli():
    single, power = Bernoulli(F(1, 3)).mgf_series(9), Series.one(9)
    for trials in (1, 2, 3, 4):
        power = power * single
        assert Binomial(trials, F(1, 3)).mgf_series(9) == power


def test_negbinomial_is_a_power_of_geometric():
    single, power = Geometric(F(2, 5)).mgf_series(9), Series.one(9)
    for a in (1, 2, 3):
        power = power * single
        assert NegBinomial(a, F(2, 5)).mgf_series(9) == power


def _law_id(law):
    return f"{law.name}({law.param_string()})"


@pytest.mark.parametrize(
    "law", ALL_LAWS + [Geometric(F(1)), Constant(F(0))], ids=_law_id
)
def test_mgf_matches_its_compositional_oracle(law):
    """Built fresh at each order, and grown in one table over a shuffled
    sequence of orders, M equals the compositional form."""
    top = len(law.moments) - 1 if isinstance(law, CustomMoments) else 20
    expected = mgf_oracle(law, top)
    orders = list(range(top + 1))
    for n in orders:
        assert law.mgf_series(n) == expected.truncate(n)
    random.Random(_law_id(law)).shuffle(orders)
    table = MgfTable(law)
    for n in orders:
        assert table.series(n) == expected.truncate(n)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Poisson(F(0))
    with pytest.raises(ValueError):
        Poisson(F(-1, 2))
    with pytest.raises(ValueError):
        Bernoulli(F(0))
    with pytest.raises(ValueError):
        Bernoulli(F(3, 2))
    with pytest.raises(ValueError):
        Binomial(0, F(1, 2))
    with pytest.raises(ValueError):
        Geometric(F(7, 5))
    with pytest.raises(ValueError):
        NegBinomial(0, F(1, 2))
    with pytest.raises(ValueError):
        CustomMoments((F(2),))


def test_custom_moments_runs_out_of_data():
    law = CustomMoments((F(1), F(1), F(2)))
    assert law.moment(2) == 2
    with pytest.raises(ValueError):
        law.mgf_series(3)


def test_degenerate_geometric_is_constant_one():
    assert Geometric(F(1)).mgf_series(6) == exp_series(F(1), 6)


def _custom(count):
    """A moment sequence of ``count`` entries, not that of any named law."""
    return CustomMoments(tuple(F(k * k + 1, k + 1) for k in range(count)))


# the custom law of ALL_LAWS has too few moments for the orders queried here
TABLE_LAWS = ALL_LAWS[:-1] + [Constant(F(0)), _custom(7)]
TABLE_EXPONENTS = [F(1, 2), F(-2, 3), F(3)]
QUERY = st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


def _power_by_exp_log(law, z, n):
    """M^z rebuilt at exactly order n as exp(z log M), from the oracle M."""
    return (mgf_oracle(law, n).log() * z).exp()


def _minus_one_power_at(law, m, n):
    """(M - 1)^m rebuilt at exactly order n by repeated multiplication."""
    base = law.mgf_series(n) - 1
    power = Series.one(n)
    for _ in range(m):
        power = power * base
    return power


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TABLE_LAWS),
    st.lists(QUERY, min_size=1, max_size=8),
    st.sampled_from(TABLE_EXPONENTS),
)
def test_table_answers_every_order_from_one_prefix(law, queries, z):
    """Whatever order the queries come in, a cold table gives the value the
    series built at exactly that order gives."""
    for sequence in (queries, sorted(queries), sorted(queries, reverse=True)):
        table = MgfTable(law)
        for n, m in sequence:
            expected = _minus_one_power_at(law, m, n).coeffs[n]
            assert table.minus_one_coeff(m, n) == expected
            assert table.series(n) == law.mgf_series(n)
            assert table.power(z, n) == _power_by_exp_log(law, z, n)


def _held(table):
    """A copy of what the table holds."""
    powers = {z: list(c) for z, c in table._powers.items()}
    return list(table._mgf), [list(p) for p in table._minus_one], powers


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 3))
def test_table_is_unchanged_by_a_request_above_the_moments(count, warm, excess):
    law = _custom(count)
    table = MgfTable(law)
    warm = min(warm, count - 1)
    table.minus_one_coeff(warm, warm)
    table.power(F(1, 2), warm)
    before = _held(table)
    above = count + excess
    with pytest.raises(ValueError):
        table.series(above)
    with pytest.raises(ValueError):
        table.minus_one_coeff(0, above)
    with pytest.raises(ValueError):
        table.power(F(1, 2), above)
    with pytest.raises(ValueError):
        law.moment(above)
    assert _held(table) == before
    for n in range(count):
        assert law.moment(n) == law.moments[n]
        assert table.power(F(1, 2), n) == _power_by_exp_log(law, F(1, 2), n)
        for m in range(n + 1):
            assert table.minus_one_coeff(m, n) == _minus_one_power_at(law, m, n).coeffs[n]


@pytest.mark.parametrize("law", TABLE_LAWS, ids=_law_id)
def test_table_grows_without_rebuilding(law, monkeypatch):
    """A cold table answers ascending queries without the law's mgf_series
    or Series.pow, and each growth step appends exactly the missing
    coefficients: M and M^z are grown to order n from n held coefficients."""
    top, z = 6, F(-2, 3)
    mgf, power = mgf_oracle(law, top), _power_by_exp_log(law, z, top)
    minus_one = {
        (m, n): _minus_one_power_at(law, m, n).coeffs[n]
        for n in range(top + 1)
        for m in range(n + 1)
    }

    def refuse(*args):
        raise AssertionError("the table rebuilt a series from scratch")

    mgf_asked, power_asked = [], []
    extend_mgf = type(law).extend_mgf

    def recording_mgf(self, coeffs, n):
        mgf_asked.append((len(coeffs), n))
        return extend_mgf(self, coeffs, n)

    def recording_pow(a, e, out, n):
        if e == z:  # binomial laws raise to integer exponents of their own
            power_asked.append((len(out), n))
        return extend_pow(a, e, out, n)

    monkeypatch.setattr(type(law), "mgf_series", refuse)
    monkeypatch.setattr(Series, "pow", refuse)
    monkeypatch.setattr(type(law), "extend_mgf", recording_mgf)
    monkeypatch.setattr(distributions, "extend_pow", recording_pow)
    table = MgfTable(law)
    for n in range(top + 1):
        assert table.power(z, n) == power.truncate(n)
        assert table.series(n) == mgf.truncate(n)
        for m in range(n + 1):
            assert table.minus_one_coeff(m, n) == minus_one[m, n]
        held_power = table._powers.get(z, [F(1)])  # M^z = 1 is not stored
        assert len(table._mgf) == len(held_power) == n + 1
        assert [len(p) for p in table._minus_one] == [n + 1] * (n + 1)
    assert mgf_asked == power_asked == [(n, n) for n in range(1, top + 1)]
