"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the library
code it checks: brute-force enumeration, recurrences, finite probability sums
with rigorous rational tail bounds, and truncated ultrametric limit sums.
``check_against_reference`` and ``wrong_reads_under_shuffled_growth`` check
the engine against them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from qbernstein.distributions import (
    Bernoulli,
    Binomial,
    CustomMoments,
    Geometric,
    MgfTable,
    NegBinomial,
    Poisson,
    Uniform01,
)
from qbernstein.families import prob_stirling2
from qbernstein.qcalc import bracket_in_t
from qbernstein.rings import Laurent, LogPoly
from qbernstein.series import Series, exp_series

F = Fraction

# one law of each kind the audit draws, at small parameters
SIX_LAWS = [
    Poisson(F(2, 3)),
    Bernoulli(F(1, 2)),
    Binomial(3, F(1, 3)),
    Geometric(F(1, 2)),
    NegBinomial(2, F(2, 3)),
    Uniform01(),
]


def set_partition_count(n: int, m: int) -> int:
    """Number of partitions of an n-element set into exactly m nonempty
    blocks, by enumerating restricted growth strings."""
    if n == 0:
        return 1 if m == 0 else 0

    count = 0
    # code[i] = index of the block containing element i; canonical form
    # requires code[i] <= 1 + max(code[:i])
    def extend(code, used):
        nonlocal count
        if len(code) == n:
            if used == m:
                count += 1
            return
        for b in range(used + 1):
            extend(code + [b], max(used, b + 1))

    extend([], 0)
    return count


def conjugate_bracket_in_t(q: Fraction) -> Laurent:
    """The inverse-base bracket of x in t: (q/t - q)/(1 - q), for q a positive
    rational other than 1."""
    q = Fraction(q)
    return Laurent({-1: q / (1 - q), 0: -q / (1 - q)})


def one_minus_conjugate_in_t(q: Fraction) -> Laurent:
    """The bracket of 1 - x in t: (1 - q/t)/(1 - q)."""
    q = Fraction(q)
    return Laurent({0: Fraction(1) / (1 - q), -1: -q / (1 - q)})


def reference_qbernstein_laurent(d, r: int, n: int, q: Fraction) -> Laurent:
    """binom(n, r) X^r times the sum over m <= n - r of (X1)_m
    prob_stirling2(d, n - r, m), with X and X1 the brackets of x and 1 - x in
    t, by Horner's rule in the falling-factorial basis, one Laurent ring
    operation at a time."""
    k = n - r
    one_minus = one_minus_conjugate_in_t(q)
    total = Laurent()
    for m in range(k, -1, -1):
        total = total * (one_minus - m) + prob_stirling2(d, k, m)
    return math.comb(n, r) * bracket_in_t(q) ** r * total


def touchard(n: int, alpha: Fraction) -> Fraction:
    """Moments of a Poisson law by the Touchard recurrence
    T(n+1) = alpha * sum over k of binom(n, k) T(k)."""
    values = [F(1)]
    for k in range(n):
        values.append(alpha * sum(math.comb(k, j) * values[j] for j in range(k + 1)))
    return values[n]


def mgf_oracle(law, order: int) -> Series:
    """The MGF of ``law`` through ``order``, composed from whole-series
    operations (exp, reciprocal, products) instead of the law's own
    coefficient rule; integer powers are repeated products."""
    e = exp_series(F(1), order)
    forms = {
        "poisson": lambda: ((e - 1) * law.alpha).exp(),
        "bernoulli": lambda: _bernoulli_mgf(e, law.p1),
        "binomial": lambda: _product_power(_bernoulli_mgf(e, law.p1), law.trials),
        "geometric": lambda: _geometric_mgf(e, law.p1),
        "negbinomial": lambda: _product_power(_geometric_mgf(e, law.p1), law.successes),
        "uniform01": lambda: Series(exp_series(F(1), order + 1).coeffs[1:]),
        "constant": lambda: exp_series(law.value, order),
        "custom": lambda: Series(
            law.moments[k] / math.factorial(k) for k in range(order + 1)
        ),
    }
    return forms[law.name]()


def _bernoulli_mgf(e: Series, p1: Fraction) -> Series:
    return e * p1 + (1 - p1)


def _geometric_mgf(e: Series, p1: Fraction) -> Series:
    return (e * p1) * (1 - e * (1 - p1)).recip()


def _product_power(base: Series, count: int) -> Series:
    power = Series([Fraction(1)] + [Fraction(0)] * base.order)
    for _ in range(count):
        power = power * base
    return power


def power_by_exp_log(law, z: Fraction, n: int) -> Series:
    """M^z rebuilt at exactly order n as exp(z log M), from the oracle M."""
    return (mgf_oracle(law, n).log() * z).exp()


def bell_at(law, n: int, m: int) -> Fraction:
    """B_(n,m) = n!/m! [v^n] (M - 1)^m, with (M - 1)^m rebuilt at exactly
    order n by repeated multiplication of the oracle M minus 1."""
    return _product_power(mgf_oracle(law, n) - 1, m).coeffs[n] * math.perm(n, n - m)


def custom_law(count: int) -> CustomMoments:
    """A moment sequence of ``count`` entries, not that of any named law."""
    return CustomMoments(tuple(F(k * k + 1, k + 1) for k in range(count)))


def law_id(law) -> str:
    return f"{law.name}({law.param_string()})"


def bernoulli_moment(p1: Fraction, n: int) -> Fraction:
    return F(1) if n == 0 else F(p1)


def binomial_moment(trials: int, p1: Fraction, n: int) -> Fraction:
    """Direct finite sum over the probability mass function."""
    p1 = F(p1)
    return sum(
        F(y) ** n * math.comb(trials, y) * p1**y * (1 - p1) ** (trials - y)
        for y in range(trials + 1)
    )


def uniform_moment(n: int) -> Fraction:
    return F(1, n + 1)


def geometric_moment_enclosure(
    p1: Fraction, n: int, eps: Fraction
) -> tuple[Fraction, Fraction]:
    """Partial sum of sum over y >= 1 of y^n p1 (1-p1)^(y-1) plus a rigorous
    rational tail bound below ``eps``; the true moment lies in
    [partial, partial + bound]."""
    p1, eps = F(p1), F(eps)
    r = 1 - p1
    if r == 0:
        return F(1), F(0)
    partial = F(0)
    y = 0
    while True:
        y += 1
        partial += F(y) ** n * p1 * r ** (y - 1)
        # beyond y the term ratio is at most s; geometric tail bound
        s = (F(y + 1) / y) ** n * r
        if s < 1:
            first_tail_term = F(y + 1) ** n * p1 * r**y
            bound = first_tail_term / (1 - s)
            if bound < eps:
                return partial, bound


def negbinomial_moment_enclosure(
    a: int, p1: Fraction, n: int, eps: Fraction
) -> tuple[Fraction, Fraction]:
    """Same scheme for the negative-binomial pmf
    binom(y-1, a-1) p1^a (1-p1)^(y-a) on y = a, a+1, ..."""
    p1, eps = F(p1), F(eps)
    r = 1 - p1
    if r == 0:
        return F(a) ** n, F(0)
    partial = F(0)
    y = a - 1
    while True:
        y += 1
        partial += F(y) ** n * math.comb(y - 1, a - 1) * p1**a * r ** (y - a)
        # term ratio (y+1 over y)^n * (y/(y-a+1)) * r decreases toward r
        s = (F(y + 1) / y) ** n * (F(y + 1) / (y + 2 - a)) * r
        if s < 1:
            first_tail_term = (
                F(y + 1) ** n * math.comb(y, a - 1) * p1**a * r ** (y + 1 - a)
            )
            bound = first_tail_term / (1 - s)
            if bound < eps:
                return partial, bound


def padic_valuation(value: Fraction, p: int):
    """Exponent of p in a rational; +infinity for zero."""
    if value == 0:
        return math.inf
    v = 0
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def min_exponent(f: Laurent) -> int | None:
    """The lowest t-exponent of a Laurent polynomial; None for zero."""
    return min(f.terms, default=None)


def is_log_free(v: LogPoly) -> bool:
    """Whether a formal-log value has no term in a nonzero power of L."""
    return all(k == 0 for k in v.terms)


def constant_part(v: LogPoly) -> Fraction:
    """The coefficient of L^0 in a formal-log value."""
    return v.terms.get(0, F(0))


def shift_x(f: Laurent, q: Fraction) -> Laurent:
    """Substitute x -> x + 1 in a Laurent polynomial in t = q^x, that is
    t^b -> q^b t^b termwise."""
    return Laurent({b: c * F(q) ** b for b, c in f.terms.items()})


def volkenborn_partial_sum(beta: int, q: Fraction, p: int, level: int) -> Fraction:
    """Truncated bosonic limit sum at block count p**level for the monomial
    with t-exponent beta: (1/[p^N]_q) * sum over l < p^N of q^((beta+1) l).

    The inner geometric sum is evaluated in closed form, which is the same
    rational number as literal term-by-term accumulation.
    """
    q = F(q)
    count = p**level
    bracket_count = (q**count - 1) / (q - 1)
    e = beta + 1
    if e == 0:
        inner = F(count)
    else:
        inner = (q ** (e * count) - 1) / (q**e - 1)
    return inner / bracket_count


def fermionic_partial_sum(beta: int, q: Fraction, p: int, level: int) -> Fraction:
    """Truncated fermionic limit sum (p odd, so the block count is odd):
    (1/[p^N]_{-q}) * sum over l < p^N of q^(beta l) (-q)^l."""
    q = F(q)
    count = p**level
    assert count % 2 == 1
    bracket_count = ((-q) ** count - 1) / (-q - 1)
    u = q ** (beta + 1)
    inner = (1 + u**count) / (1 + u)
    return inner / bracket_count


def volkenborn_direct_sum(beta: int, q: Fraction, p: int, level: int) -> Fraction:
    """Literal term-by-term version of the bosonic truncated sum, practical
    only for small levels; cross-checks the closed-form accumulation."""
    q = F(q)
    count = p**level
    bracket_count = (q**count - 1) / (q - 1)
    inner = sum(q ** (beta * l) * q**l for l in range(count))
    return inner / bracket_count


def reference_mul(a: list, b: list) -> list:
    """The schoolbook product of two coefficient lists of one length, one
    Fraction operation at a time."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(len(a))]


def reference_exp(a: list) -> list:
    """exp of a series with a_0 = 0, from E' = A' E:
    k e_k = sum over i = 1..k of i a_i e_(k-i), in Fractions."""
    out = [F(1)]
    for k in range(1, len(a)):
        out.append(sum((i * a[i] * out[k - i] for i in range(1, k + 1)), F(0)) / k)
    return out


def reference_log(a: list) -> list:
    """log of a series with a_0 = 1, from A L' = A':
    k l_k = k a_k - sum over 0 < i < k of i l_i a_(k-i), in Fractions."""
    out = [F(0)]
    for k in range(1, len(a)):
        acc = k * a[k] - sum((i * out[i] * a[k - i] for i in range(1, k)), F(0))
        out.append(acc / k)
    return out


def reference_pow(a: list, z) -> list:
    """A^z for a_0 = 1 by Miller's recurrence in Fractions:
    k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j)."""
    out = [F(1)]
    for k in range(1, len(a)):
        acc = sum((((z + 1) * j - k) * a[j] * out[k - j] for j in range(1, k + 1)), F(0))
        out.append(acc / k)
    return out


def reference_recip(a: list) -> list:
    """1/A for a_0 != 0 by long division: b_0 = 1/a_0 and
    b_k = -(sum over j = 1..k of a_j b_(k-j)) / a_0."""
    out = [1 / F(a[0])]
    for k in range(1, len(a)):
        out.append(-sum((a[j] * out[k - j] for j in range(1, k + 1)), F(0)) / a[0])
    return out


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return F(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_series_coeffs(rng: random.Random, order: int, first) -> list:
    return [F(first)] + [random_fraction(rng) for _ in range(order)]


def _assert_is(s, values):
    """``s`` holds exactly ``values``, in the one canonical layout: the lcm
    of their denominators, and each value's numerator over it."""
    den = math.lcm(*(v.denominator for v in values))
    assert (s.nums, s.den) == (tuple(v.numerator * (den // v.denominator) for v in values), den)
    assert s.coeffs == tuple(values)


def check_against_reference(a, b, c, z):
    """Every Series operation on a and b (and the scalar c, the exponent z)
    against the Fraction-per-coefficient reference above."""
    s, t, n = Series(a), Series(b), len(a) - 1
    _assert_is(s, a)
    _assert_is(Series.zero(n), [F(0)] * (n + 1))
    _assert_is(exp_series(c, n), [c**k / math.factorial(k) for k in range(n + 1)])
    _assert_is(s + t, [x + y for x, y in zip(a, b)])
    _assert_is(s - t, [x - y for x, y in zip(a, b)])
    _assert_is(-s, [-x for x in a])
    _assert_is(s + c, [a[0] + c] + a[1:])
    _assert_is(c - s, [c - a[0]] + [-x for x in a[1:]])
    _assert_is(s * c, [x * c for x in a])
    _assert_is(c * s, [c * x for x in a])
    _assert_is(s * t, reference_mul(a, b))
    _assert_is(s.truncate(n // 2), a[: n // 2 + 1])
    if n:
        _assert_is(s.derive(), [i * a[i] for i in range(1, n + 1)])
    assert [s.egf_coeff(k) for k in range(n + 1)] == [
        math.factorial(k) * x for k, x in enumerate(a)
    ]
    assert (s == t) == (a == b)
    zero_head, unit_head = [F(0)] + a[1:], [F(1)] + a[1:]
    _assert_is(Series(zero_head).exp(), reference_exp(zero_head))
    _assert_is(Series(unit_head).log(), reference_log(unit_head))
    _assert_is(Series(unit_head).pow(z), reference_pow(unit_head, z))
    if a[0]:
        _assert_is(s.recip(), reference_recip(a))


# two laws whose d_k miss some D_i D_(k-i), so that D_k differs from d_k
UNEVEN_DENOMINATORS = [Uniform01(), custom_law(13)]


def wrong_reads_under_shuffled_growth(law):
    """The number of reads of M, of every Bell number and of M^z, at orders
    up to 12 in a shuffled order, that differ from their oracles or divide
    by zero."""
    z, wrong = F(-2, 3), 0
    queries = [(kind, n) for kind in ("mgf", "bell", "power") for n in range(13)]
    random.Random(law_id(law)).shuffle(queries)
    table = MgfTable(law)
    for kind, n in queries:
        try:
            if kind == "mgf":
                wrong += table.series(n) != mgf_oracle(law, n)
            elif kind == "bell":
                wrong += sum(table.bell(n, m) != bell_at(law, n, m) for m in range(n + 1))
            else:
                wrong += table.power(z, n) != power_by_exp_log(law, z, n)
        except ZeroDivisionError:
            wrong += 1
    return wrong
