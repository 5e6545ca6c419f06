import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mgf_table,
)
from qbernstein.families import prob_stirling2
from qbernstein.series import Series, exp_series

from oracles import (
    UNEVEN_DENOMINATORS,
    bell_at,
    bernoulli_moment,
    binomial_moment,
    custom_law,
    geometric_moment_enclosure,
    law_id,
    mgf_oracle,
    negbinomial_moment_enclosure,
    power_by_exp_log,
    touchard,
    uniform_moment,
    wrong_reads_under_shuffled_growth,
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
    single = Bernoulli(F(1, 3)).mgf_series(9)
    power = Series([F(1)] + [F(0)] * 9)
    for trials in (1, 2, 3, 4):
        power = power * single
        assert Binomial(trials, F(1, 3)).mgf_series(9) == power


def test_negbinomial_is_a_power_of_geometric():
    single = Geometric(F(2, 5)).mgf_series(9)
    power = Series([F(1)] + [F(0)] * 9)
    for a in (1, 2, 3):
        power = power * single
        assert NegBinomial(a, F(2, 5)).mgf_series(9) == power


@pytest.mark.parametrize(
    "law",
    ALL_LAWS
    + [Geometric(F(1)), Constant(F(0)), Binomial(25, F(2, 7)), NegBinomial(5, F(3, 7))],
    ids=law_id,
)
def test_mgf_matches_its_compositional_oracle(law):
    """Each pair (N, d) the law's rule states is its moment, and M grown in
    one table over a shuffled sequence of orders equals the compositional
    form.  The rule is fed its own numerators: an ODE law's d is S^k, the
    table's D_k, and the other laws read none."""
    top = len(law.moments) - 1 if isinstance(law, CustomMoments) else 20
    expected = mgf_oracle(law, top)
    nums = [1]
    for k in range(1, top + 1):
        num, den = law._moment(k, nums, top)
        nums.append(num)
        assert F(num, den) == expected.egf_coeff(k)
    orders = list(range(top + 1))
    random.Random(law_id(law)).shuffle(orders)
    table = MgfTable(law)
    for n in orders:
        assert table.series(n) == expected.truncate(n)


# Each law kind, built by keyword, with its repr and its param_string.
LAW_VALUES = [
    (Poisson, {"alpha": F(2, 3)}, "Poisson(alpha=Fraction(2, 3))", "alpha=2/3"),
    (Bernoulli, {"p1": F(1, 3)}, "Bernoulli(p1=Fraction(1, 3))", "p1=1/3"),
    (
        Binomial,
        {"trials": 4, "p1": F(2, 5)},
        "Binomial(trials=4, p1=Fraction(2, 5))",
        "trials=4;p1=2/5",
    ),
    (Geometric, {"p1": F(1, 2)}, "Geometric(p1=Fraction(1, 2))", "p1=1/2"),
    (
        NegBinomial,
        {"successes": 3, "p1": F(3, 5)},
        "NegBinomial(successes=3, p1=Fraction(3, 5))",
        "successes=3;p1=3/5",
    ),
    (Uniform01, {}, "Uniform01()", ""),
    (Constant, {"value": F(5, 2)}, "Constant(value=Fraction(5, 2))", "value=5/2"),
    (
        CustomMoments,
        {"moments": (F(1), F(1, 2))},
        "CustomMoments(moments=(Fraction(1, 1), Fraction(1, 2)))",
        "moments=1,1/2",
    ),
]


@pytest.mark.parametrize(
    "kind, params, text, param_string", LAW_VALUES, ids=[v[0].__name__ for v in LAW_VALUES]
)
def test_laws_are_immutable_values(kind, params, text, param_string):
    """Equal parameters give equal laws whose hash is that of the field
    tuple; the repr and param_string name every field; no attribute of a law
    can be set."""
    law, twin = kind(**params), kind(*params.values())
    assert law == twin and law is not twin
    assert hash(law) == hash(twin) == hash(tuple(params.values()))
    assert repr(law) == text
    assert law.param_string() == param_string
    for name in (*params, "other"):
        with pytest.raises(AttributeError):
            setattr(law, name, F(1))


@pytest.mark.parametrize(
    "kind, params", [v[:2] for v in LAW_VALUES], ids=[v[0].__name__ for v in LAW_VALUES]
)
def test_each_field_has_one_gate(kind, params):
    """A law states one gate per field in ``_gates``, in the order of
    ``_fields``, and holds each field as its gate returns it."""
    assert len(kind._gates) == len(kind._fields) == len(params)
    law = kind(**params)
    for field, gate in zip(kind._fields, kind._gates):
        held, normal = getattr(law, field), gate(params[field])
        assert held == normal and type(held) is type(normal)


def test_reading_a_law_never_writes_to_it():
    """Every read goes through the table the law bound when it was built, so
    the law's own dict holds the same objects after any read."""
    law = NegBinomial(2, F(2, 3))
    held = dict(vars(law))
    law.mgf_series(6)
    law.moment(5)
    mgf_table(law).bell_parts(4)
    mgf_table(law).power_parts(F(1, 2), 3)
    assert vars(law) == held and all(vars(law)[k] is v for k, v in held.items())


def test_equal_laws_built_apart_hold_one_table_before_any_read():
    law, twin = Poisson(F(5, 7)), Poisson(F(10, 14))
    assert vars(law)["_table"] is vars(twin)["_table"] is mgf_table(twin)
    assert vars(Constant(F(5, 7)))["_table"] is not vars(law)["_table"]


def test_laws_of_different_kinds_are_unequal():
    """Equality compares the kind before the fields: the shared table cache
    keys on the law, so Poisson(2) must not find Constant(2)'s table."""
    assert Poisson(F(2)) != Constant(F(2))
    assert Bernoulli(F(1, 2)) != Geometric(F(1, 2))
    assert Poisson(2) == Poisson(F(2)) and Poisson(2).alpha.denominator == 1


@pytest.mark.parametrize(
    "law, twin, printed",
    [
        (Binomial(True, F(1, 2)), Binomial(1, F(1, 2)), "trials=1;p1=1/2"),
        (NegBinomial(True, F(1, 3)), NegBinomial(1, F(1, 3)), "successes=1;p1=1/3"),
    ],
    ids=["binomial", "negbinomial"],
)
def test_equal_laws_print_alike(law, twin, printed):
    """A count passes the one count gate, which holds a bool as its int, so
    a law counted by True equals and prints as the law counted by 1."""
    assert law == twin and hash(law) == hash(twin)
    assert repr(law) == repr(twin) and law.param_string() == twin.param_string() == printed


def test_degenerate_geometric_is_constant_one():
    assert Geometric(F(1)).mgf_series(6) == exp_series(F(1), 6)


# the custom law of ALL_LAWS has too few moments for the orders queried here
TABLE_LAWS = ALL_LAWS[:-1] + [Constant(F(0)), custom_law(7)]
TABLE_EXPONENTS = [F(1, 2), F(-2, 3), F(3)]
QUERY = st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


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
            assert table.bell(n, m) == bell_at(law, n, m)
            assert table.series(n) == mgf_oracle(law, n)
            assert table.power(z, n) == power_by_exp_log(law, z, n)


def _held(table):
    """A copy of what the table holds: its denominators and their splits,
    the integers over them, and the held exponent."""
    rows, splits = [list(r) for r in table._rows], [list(x) for x in table._splits]
    return list(table._dens), splits, list(table._nums), rows, table._z, list(table._zpow)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 3))
def test_table_is_unchanged_by_a_request_above_the_moments(count, warm, excess):
    law = custom_law(count)
    table = MgfTable(law)
    warm = min(warm, count - 1)
    table.bell(warm, warm)
    table.power(F(1, 2), warm)
    before = _held(table)
    above = count + excess
    with pytest.raises(ValueError):
        table.series(above)
    with pytest.raises(ValueError):
        table.bell(above, 0)
    with pytest.raises(ValueError):
        table.power(F(1, 2), above)
    with pytest.raises(ValueError):
        law.moment(above)
    assert _held(table) == before
    for n in range(count):
        assert law.moment(n) == law.moments[n]
        assert table.power(F(1, 2), n) == power_by_exp_log(law, F(1, 2), n)
        for m in range(n + 1):
            assert table.bell(n, m) == bell_at(law, n, m)


def test_table_holds_one_exponent_at_a_time():
    """One table asked for z1, then z2, then z1 again at rising orders gives
    exp(z log M) of the oracle every time; a request above the moments in
    between raises and leaves the held exponent as it was."""
    law = custom_law(10)
    table = MgfTable(law)
    z1, z2 = F(1, 2), F(-2, 3)
    for z, n in [(z1, 2), (z2, 3), (z1, 4), (z2, 12), (z1, 5), (z2, 6), (z1, 7),
                 (z1, 10), (z1, 8), (z2, 9)]:
        if n >= len(law.moments):
            before = _held(table)
            with pytest.raises(ValueError):
                table.power_parts(z, n)
            assert _held(table) == before
            continue
        expected = power_by_exp_log(law, z, n)
        assert table.power(z, n) == expected
        assert F(*table.power_parts(z, n)) == expected.egf_coeff(n)
        assert table._z == z


def test_an_equal_exponent_reuses_the_held_power(monkeypatch):
    """The held exponent is matched by value, not only by identity: an equal
    Fraction held by another object reads the held M^z without growing it,
    and a different exponent replaces it."""
    law, z, other = Geometric(F(2, 5)), F(-2, 3), F(3, 4)
    calls = []
    grow = MgfTable._grow_power

    def counted(self, n):
        calls.append((self._z, n))
        return grow(self, n)

    monkeypatch.setattr(MgfTable, "_grow_power", counted)
    table = MgfTable(law)
    held = table.power(z, 8)
    assert calls == [(z, 8)]
    for n in range(9):
        equal = F(z.numerator, z.denominator)
        assert equal is not z
        assert F(*table.power_parts(equal, n)) == held.egf_coeff(n)
        assert table.power(equal, n) == held.truncate(n)
    assert calls == [(z, 8)]
    assert table.power(other, 5) == power_by_exp_log(law, other, 5)
    assert calls == [(z, 8), (other, 5)]
    assert table._z is other and len(table._zpow) == 6


def test_power_parts_reads_the_held_power_only_for_the_held_exponent():
    """The read of a held Beta_k by the held exponent object itself keeps
    every check of the full path: a negative index raises rather than read
    from the end of the held list, an equal but distinct exponent and a
    replaced one give what an empty table gives, and a law short of the
    moments raises at the first index it lacks, keeping its held exponent."""
    law, z, z2 = Geometric(F(2, 5)), F(-2, 3), F(5, 7)
    table = MgfTable(law)
    table.power_parts(z, 10)
    with pytest.raises(ValueError):
        table.power_parts(z, -1)
    fresh = [MgfTable(law).power_parts(F(-2, 3), k) for k in range(12)]
    equal = F(z.numerator, z.denominator)
    assert equal is not z
    assert [table.power_parts(equal, k) for k in range(12)] == fresh
    assert table.power_parts(z2, 3) == MgfTable(law).power_parts(z2, 3)
    assert [table.power_parts(z, k) for k in range(12)] == fresh

    short = MgfTable(custom_law(6))  # mu_0 .. mu_5
    short.power_parts(z, 5)
    held = _held(short)
    assert short.power_parts(z, 5) == MgfTable(custom_law(6)).power_parts(z, 5)
    with pytest.raises(ValueError, match="only 6 moments provided, order 6 requested"):
        short.power_parts(z, 6)
    assert _held(short) == held and short._z is z


@pytest.mark.parametrize("law", TABLE_LAWS, ids=law_id)
def test_table_grows_without_rebuilding(law, monkeypatch):
    """A cold table answers ascending queries without the law's mgf_series
    or Series.pow, and each growth step appends exactly the missing entries:
    the N_k, the Bell rows and the Beta_k of M^z are grown to order n from n
    held ones, and the held Bell row k has length k + 1."""
    top, z = 6, F(-2, 3)
    mgf, power = mgf_oracle(law, top), power_by_exp_log(law, z, top)
    bell = {(n, m): bell_at(law, n, m) for n in range(top + 1) for m in range(n + 1)}

    def refuse(*args):
        raise AssertionError("the table rebuilt a series from scratch")

    asked = {"nums": [], "rows": [], "power": []}
    moment, grow_rows, grow_power = type(law)._moment, MgfTable._grow_rows, MgfTable._grow_power

    def recording_nums(self, k, nums, n):
        asked["nums"].append((len(nums), k, n))
        return moment(self, k, nums, n)

    def recording_rows(self, n):
        asked["rows"].append((len(self._rows), n))
        return grow_rows(self, n)

    def recording_power(self, n):
        asked["power"].append((len(self._zpow), n))
        return grow_power(self, n)

    monkeypatch.setattr(type(law), "mgf_series", refuse)
    monkeypatch.setattr(Series, "pow", refuse)
    monkeypatch.setattr(type(law), "_moment", recording_nums)
    monkeypatch.setattr(MgfTable, "_grow_rows", recording_rows)
    monkeypatch.setattr(MgfTable, "_grow_power", recording_power)
    table = MgfTable(law)
    for n in range(top + 1):
        assert table.power(z, n) == power.truncate(n)
        assert table.series(n) == mgf.truncate(n)
        for m in range(n + 1):
            assert table.bell(n, m) == bell[n, m]
        assert len(table._nums) == len(table._zpow) == n + 1
        assert [len(row) for row in table._rows] == list(range(1, n + 2))
    steps = [(n, n) for n in range(1, top + 1)]
    assert asked["nums"] == [(n, n, n) for n in range(1, top + 1)]
    assert asked["rows"] == asked["power"] == steps


@pytest.mark.parametrize("law", UNEVEN_DENOMINATORS, ids=law_id)
def test_shuffled_growth_reads_every_value(law):
    """Uniform01's d_k = k + 1 and the custom law's reduced denominators are
    not closed under products; every read after a growth still equals its
    oracle."""
    assert wrong_reads_under_shuffled_growth(law) == 0


ODE_LAWS = [law for law in ALL_LAWS if not isinstance(law, (Uniform01, CustomMoments))]


@pytest.mark.parametrize("law", ODE_LAWS, ids=law_id)
def test_each_ode_law_holds_index_k_over_s_to_the_k(law):
    """A law stated by its ODE holds index k over D_k = S^k."""
    table = MgfTable(law)
    table.bell_parts(40)
    assert table._dens == [law._ode()[3] ** k for k in range(41)]


def test_uniform01_holds_index_k_over_prime_powers():
    """Uniform01 holds index k over the product of p^floor(k/(p - 1)) over
    the primes p, the least multiple of k + 1 and of every D_i D_(k-i)."""
    table = MgfTable(Uniform01())
    table.bell_parts(40)
    primes = [p for p in range(2, 42) if all(p % d for d in range(2, p))]
    assert table._dens == [math.prod(p ** (k // (p - 1)) for p in primes) for k in range(41)]


@pytest.mark.parametrize("law", ALL_LAWS[:-1] + [custom_law(65)], ids=lambda law: law.name)
def test_held_integers_stay_near_the_size_of_the_values(law):
    """At n = 64, with M^(-7/3) grown, no integer the table holds has more
    than 4 times the bits of the largest reduced Bell numerator of
    bell_parts(64) plus those of its reduced common denominator: the layout
    carries no factor that the values do not need."""
    table = MgfTable(law)
    row, den = table.bell_parts(64)
    table.power(F(-7, 3), 64)
    values = [F(a, den) for a in row]
    reduced = max(v.numerator.bit_length() for v in values)
    reduced += math.lcm(*(v.denominator for v in values)).bit_length()
    held = [*table._nums, *table._dens, *table._zpow]
    held += [a for part in (*table._rows, *table._splits) for a in part]
    assert max(x.bit_length() for x in held) <= 4 * reduced


ORACLE_LAWS = TABLE_LAWS + [Geometric(F(1))]
RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@st.composite
def minus_one_queries(draw):
    """A law (a named one, or a custom law of random rational moments) and a
    shuffled list of (n, m) queries with m <= n <= 12."""
    top = draw(st.integers(0, 12))
    law = draw(
        st.one_of(
            st.sampled_from(ORACLE_LAWS),
            st.lists(RATIONALS, min_size=top, max_size=top).map(
                lambda tail: CustomMoments((F(1), *tail))
            ),
        )
    )
    if isinstance(law, CustomMoments):
        top = min(top, len(law.moments) - 1)
    pairs = [(n, m) for n in range(top + 1) for m in range(n + 1)]
    return law, top, draw(st.permutations(pairs))


@settings(max_examples=60, deadline=None)
@given(minus_one_queries())
def test_minus_one_powers_are_repeated_products_of_the_oracle(drawn):
    """The Bell numbers of (M - 1)^m from the table's integer kernel, queried
    in a shuffled order, against repeated Series products of the
    compositional M minus 1."""
    law, top, queries = drawn
    base = mgf_oracle(law, top) - 1
    powers = [Series([F(1)] + [F(0)] * top)]
    for _ in range(top):
        powers.append(powers[-1] * base)
    table = MgfTable(law)
    for n, m in queries:
        assert table.bell(n, m) == powers[m].coeffs[n] * math.perm(n, n - m)


@pytest.mark.parametrize("law", ALL_LAWS[:-1] + [custom_law(13)], ids=law_id)
def test_bell_parts_are_the_integer_row_of_prob_stirling2(law):
    """A cold table's bell_parts(n), read at rising n, are A_m(n) and c^n with
    A_m(n) / c^n = prob_stirling2(d, n, m) for every m <= n <= 12."""
    table = MgfTable(law)
    for n in range(13):
        row, scale = table.bell_parts(n)
        assert len(row) == n + 1
        assert [F(a, scale) for a in row] == [prob_stirling2(law, n, m) for m in range(n + 1)]


def test_bell_parts_read_before_a_growth_keep_their_values():
    """The row read at n = 4 is the held tuple over the fixed D_4, not a
    copy: after the table grows to 12 a new read at 4 gives the same object
    and the same D_4, and it still gives the Bell numbers."""
    law = Uniform01()
    table = MgfTable(law)
    row, scale = table.bell_parts(4)
    assert type(row) is tuple and row is table._rows[4]
    table.bell_parts(12)
    again, rescale = table.bell_parts(4)
    assert again is row and rescale == scale
    assert [F(a, scale) for a in row] == [prob_stirling2(law, 4, m) for m in range(5)]


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
def test_table_reads_check_their_indices(grown):
    """A negative index raises ValueError, and m > n reads 0, at every table
    state; neither changes what the table holds."""
    table = MgfTable(Poisson(F(1)))
    if grown:
        table.bell(8, 8)
        table.power(F(1, 2), 8)
    before = _held(table)
    for read in (
        lambda: table.moment(-1),
        lambda: table.series(-1),
        lambda: table.bell(8, -1),
        lambda: table.bell(-1, 0),
        lambda: table.power(F(1, 2), -1),
        lambda: table.power_parts(F(1, 2), -1),
        lambda: table.bell_parts(-1),
    ):
        with pytest.raises(ValueError):
            read()
    assert table.bell(3, 5) == 0
    assert table.bell(8, 9) == 0
    assert _held(table) == before
