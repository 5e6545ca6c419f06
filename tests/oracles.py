"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the library
code it checks: brute-force enumeration, recurrences, finite probability sums
with rigorous rational tail bounds, and truncated ultrametric limit sums.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from qbernstein.series import Series, exp_series

F = Fraction


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
        "uniform01": lambda: (exp_series(F(1), order + 1) - 1).divide_v(1),
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
    power = Series.one(base.order)
    for _ in range(count):
        power = power * base
    return power


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


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9) -> Fraction:
    return F(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_series_coeffs(rng: random.Random, order: int, first) -> list:
    return [F(first)] + [random_fraction(rng) for _ in range(order)]
