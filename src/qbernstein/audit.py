"""Executable identity registry.

Each registered case states one claimed identity between values produced by
two independent computation routes (series-engine extraction on one side,
closed-form sums over auxiliary families or integral-operator evaluation on
the other).  Cases are evaluated at randomly drawn exact points and exact
distribution parameters; PASS means the two sides are literally equal as
rationals, Laurent polynomials, or formal-log values.  There are no
tolerances anywhere.

Three expectation classes (configuration, not hard-coded asserts):

  pass    the identity is expected to hold on every admissible draw; a FAIL
          or an ERROR (the evaluation raised) here fails the build.
  record  both sides are computed and the outcome is reported, nothing is
          asserted.  Used for printed claims whose stated form does not
          follow from the definitions (wrong or missing factors, degenerate
          hypotheses) and for their repaired variants kept for comparison.
  skip    the stated form has no well-defined reading; the entry exists so
          the report shows it was considered, with the ambiguity in notes.

Variant names: "verbatim" evaluates the claim as printed (under the
charitable index conventions listed in the case notes), "corrected" evaluates
the repaired form, and "verbatim-const" restricts a verbatim claim to
degenerate single-point laws, the regime where its derivation step is exact.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from typing import Callable

from .distributions import (
    Bernoulli,
    Binomial,
    Constant,
    Distribution,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
)
from .families import (
    bell_poly,
    bernstein_classical,
    frobenius_euler,
    higher_bernoulli,
    prob_bernoulli,
    prob_bernoulli_higher,
    prob_euler,
    prob_qbernstein,
    prob_qbernstein_gf,
    prob_qbernstein_laurent,
    prob_stirling2,
    stirling2,
)
from .padic import carlitz_beta, fermionic, integrate_weighted_term, q_euler, volkenborn
from .qcalc import QPoint, bracket, bracket_conjugates, one_minus_bracket_power
from .rings import Laurent, LogPoly, falling_factorial, laurent_x_derivation
from .series import Series

F = Fraction


class CaseSkip(Exception):
    """Raised by an evaluator when the drawn inputs violate a precondition."""


@dataclass
class CaseDraw:
    dist: Distribution | None
    point: QPoint | None
    indices: dict


@dataclass(frozen=True)
class IdentityCase:
    id: str
    variant: str
    statement: str
    expected: str  # "pass" | "record" | "skip"
    draw: Callable[[random.Random], CaseDraw] | None
    evaluate: Callable[[CaseDraw, int], tuple] | None
    notes: str = ""


@dataclass
class AuditRecord:
    id: str
    variant: str
    dist: str
    params: str
    rho: str
    c: int
    d: int
    order: int
    status: str
    lhs: str
    rhs: str
    difference: str

    def stable_dict(self) -> dict:
        return {
            "id": self.id,
            "variant": self.variant,
            "dist": self.dist,
            "params": self.params,
            "rho": self.rho,
            "c": self.c,
            "d": self.d,
            "order": self.order,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class AuditReport:
    seed: int
    trials: int
    order: int
    records: list = field(default_factory=list)

    def expected_pass_failures(self) -> list:
        expectation = {(c.id, c.variant): c.expected for c in REGISTRY}
        return [
            r
            for r in self.records
            if expectation.get((r.id, r.variant)) == "pass" and r.status != "PASS"
        ]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(r.stable_dict(), separators=(",", ":")) for r in self.records
        ]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        import csv

        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "id", "variant", "dist", "params", "rho", "c", "d",
                "order", "status", "lhs", "rhs", "difference",
            ]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.id, r.variant, r.dist, r.params, r.rho, r.c, r.d,
                    r.order, r.status, r.lhs, r.rhs, r.difference,
                ]
            )
        return buf.getvalue()

    def to_latex(self) -> str:
        rows = [
            r"\begin{tabular}{llllll}",
            r"id & variant & dist & params & status & difference \\",
            r"\hline",
        ]
        for r in self.records:
            cells = [r.id, r.variant, r.dist, r.params, r.status, r.difference]
            rows.append(" & ".join(_latex_escape(c) for c in cells) + r" \\")
        rows.append(r"\end{tabular}")
        return "\n".join(rows) + "\n"

    def summary_lines(self) -> list[str]:
        counts: dict[tuple, dict] = {}
        for r in self.records:
            key = (r.id, r.variant)
            counts.setdefault(key, {"PASS": 0, "FAIL": 0, "SKIP": 0, "ERROR": 0})
            counts[key][r.status] += 1
        expectation = {(c.id, c.variant): c.expected for c in REGISTRY}
        lines = []
        for key in sorted(counts):
            c = counts[key]
            exp = expectation.get(key, "?")
            lines.append(
                f"{key[0]:<7s} {key[1]:<15s} expected={exp:<7s} "
                f"PASS={c['PASS']} FAIL={c['FAIL']} SKIP={c['SKIP']}"
                + (f" ERROR={c['ERROR']}" if c["ERROR"] else "")
            )
        return lines


def _latex_escape(text) -> str:
    out = []
    for ch in str(text):
        if ch in "&%$#_{}":
            out.append("\\" + ch)
        elif ch == "^":
            out.append(r"\^{}")
        elif ch == "\\":
            out.append(r"\textbackslash{}")
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# value rendering

def render_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + " | ".join(render_value(x) for x in v) + ")"
    return str(v)


def _values_equal(lhs, rhs) -> bool:
    if isinstance(lhs, tuple) or isinstance(rhs, tuple):
        return (
            isinstance(lhs, tuple)
            and isinstance(rhs, tuple)
            and len(lhs) == len(rhs)
            and all(_values_equal(a, b) for a, b in zip(lhs, rhs))
        )
    return lhs == rhs


def _values_diff(lhs, rhs):
    if isinstance(lhs, tuple) and isinstance(rhs, tuple):
        return tuple(_values_diff(a, b) for a, b in zip(lhs, rhs))
    return lhs - rhs


# ---------------------------------------------------------------------------
# draws (fixed grids; reproducible evidence at random admissible points)

RHO_GRID = [
    F(1, 2), F(2, 3), F(3, 4), F(2, 5), F(3, 5),
    F(4, 3), F(3, 2), F(5, 4), F(7, 5), F(9, 5),
]
ALPHA_GRID = [F(2, 3), F(1), F(3, 2), F(1, 3), F(2)]
P1_GRID = [F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1, 4)]
TRIALS_GRID = [1, 2, 3, 4]
SUCCESSES_GRID = [1, 2, 3]
CONST_GRID = [F(1), F(2), F(1, 2), F(3)]


def draw_qpoint(rng: random.Random) -> QPoint:
    rho = rng.choice(RHO_GRID)
    d = rng.choice([2, 3, 4])
    c = rng.randrange(1, d)
    return QPoint(rho, c, d)


def draw_classical_point(rng: random.Random) -> QPoint:
    d = rng.choice([2, 3, 4])
    c = rng.randrange(1, d)
    return QPoint.classical(F(c, d))


# One parameter draw per law kind.  draw_law picks a kind by its position
# here, so the order of the entries is part of every seeded draw.
LAW_POOLS: dict[str, Callable[[random.Random], Distribution]] = {
    "poisson": lambda rng: Poisson(rng.choice(ALPHA_GRID)),
    "bernoulli": lambda rng: Bernoulli(rng.choice(P1_GRID)),
    "binomial": lambda rng: Binomial(rng.choice(TRIALS_GRID), rng.choice(P1_GRID)),
    "geometric": lambda rng: Geometric(rng.choice(P1_GRID)),
    "negbinomial": lambda rng: NegBinomial(
        rng.choice(SUCCESSES_GRID), rng.choice(P1_GRID)
    ),
    "uniform01": lambda rng: Uniform01(),
}


def draw_law(rng: random.Random) -> Distribution:
    return LAW_POOLS[rng.choice(list(LAW_POOLS))](rng)


def draw_constant_law(rng: random.Random) -> Distribution:
    return Constant(rng.choice(CONST_GRID))


# The largest series index any draw asks for; a run needs at least this order.
MAX_DRAWN_INDEX = 6


def _draw_rn(
    rng: random.Random, n_min: int = 0, n_max: int = MAX_DRAWN_INDEX
) -> tuple[int, int]:
    n = rng.randrange(n_min, n_max + 1)
    r = rng.randrange(0, n + 1)
    return r, n


def _point_draw_rn(pool, n_min: int = 0, n_max: int = MAX_DRAWN_INDEX):
    def draw(rng: random.Random) -> CaseDraw:
        dist = pool(rng)
        point = draw_qpoint(rng)
        r, n = _draw_rn(rng, n_min, n_max)
        return CaseDraw(dist, point, {"r": r, "n": n})

    return draw


def _brackets(point: QPoint):
    conj, one_minus = bracket_conjugates(point)
    return bracket(point), conj, one_minus


def _qb(dist, r, n, point):
    """Family value with out-of-range lower index read as zero."""
    if r < 0 or r > n or n < 0:
        return F(0)
    return prob_qbernstein(dist, r, n, point)


def _qb_laurent(dist, r, n, q):
    if r < 0 or r > n or n < 0:
        return Laurent()
    return prob_qbernstein_laurent(dist, r, n, q)


# ---------------------------------------------------------------------------
# evaluators; each returns (lhs, rhs) computed by disjoint routes


def eval_bracket_properties(draw: CaseDraw, order: int):
    ix = draw.indices
    rho, d = ix["rho"], ix["d"]
    c1, c2 = ix["c1"], ix["c2"]
    p1 = QPoint(rho, c1, d)
    p2 = QPoint(rho, c2, d)
    q, t = p1.q, p1.t
    # definition-route values
    diff_def = bracket(QPoint(rho, c1 - c2, d))
    neg_def = bracket(QPoint(rho, -c1, d))
    conj_def = bracket(QPoint(1 / rho, c1, d))
    one_minus_def = bracket(QPoint(rho, d - c1, d))
    lhs = (diff_def, neg_def, conj_def, one_minus_def, bracket_conjugates(p1))
    rhs = (
        bracket(p1) - rho ** (c1 - c2) * bracket(p2),
        -(t ** (-1)) * bracket(p1),
        (q / t) * bracket(p1),
        1 - conj_def,
        (conj_def, one_minus_def),
    )
    return lhs, rhs


def draw_bracket_properties(rng: random.Random) -> CaseDraw:
    rho = rng.choice(RHO_GRID)
    d = rng.choice([2, 3, 4])
    c1 = rng.randrange(1, 2 * d + 1)
    c2 = rng.randrange(1, 2 * d + 1)
    return CaseDraw(None, QPoint(rho, c1, d), {"rho": rho, "d": d, "c1": c1, "c2": c2})


def eval_one_minus_power(draw: CaseDraw, order: int):
    point, m = draw.point, draw.indices["m"]
    scalar, expansion = one_minus_bracket_power(point, m)
    x_val = bracket(point)
    direct = point.t ** (-m) * sum(
        math.comb(m, l) * (-1) ** l * x_val**l for l in range(m + 1)
    )
    return (scalar, scalar), (expansion.substitute(point.t), direct)


def draw_one_minus_power(rng: random.Random) -> CaseDraw:
    return CaseDraw(None, draw_qpoint(rng), {"m": rng.randrange(0, 9)})


def _log_expansion_eval(corrected: bool):
    def evaluate(draw: CaseDraw, order: int):
        dist = draw.dist
        lhs = dist.mgf_series(order).log()
        coeffs = [F(0)]
        for k in range(1, order + 1):
            acc = F(0)
            for l in range(k):
                weight = math.factorial(l) if corrected else 1
                acc += (-1) ** l * weight * prob_stirling2(dist, k, l + 1)
            coeffs.append(acc / F(math.factorial(k)))
        return lhs, Series(coeffs)

    return evaluate


def _dist_only_draw(rng: random.Random) -> CaseDraw:
    return CaseDraw(draw_law(rng), None, {})


def eval_t21(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = sum(
        math.comb(n, m)
        * prob_stirling2(dist, n - m, r)
        * prob_bernoulli_higher(dist, m, r, one_minus)
        for m in range(n + 1)
    ) * x_val**r
    return lhs, rhs


def eval_t22_corrected(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, conj, _ = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    total = F(0)
    for l in range(n - r + 1):
        inner = sum(
            falling_factorial(-conj, j) * prob_stirling2(dist, l, j)
            for j in range(l + 1)
        )
        total += math.comb(n - r, l) * inner * dist.moment(n - r - l)
    rhs = math.comb(n, r) * x_val**r * total
    return lhs, rhs


def eval_t23(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, conj, _ = _brackets(point)
    lhs = x_val**r
    denom = dist.moment(n - r)
    if denom == 0:
        raise CaseSkip("law has a vanishing moment of the needed index")
    total = F(0)
    for l in range(r, n + 1):
        for m in range(n - l + 1):
            total += (
                prob_stirling2(dist, n - l, m)
                * F(math.comb(n, l), math.comb(n, r))
                * falling_factorial(conj, m)
                * prob_qbernstein(dist, r, l, point)
            )
    return lhs, total / denom


def eval_c21(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    q = point.q
    lhs = (carlitz_beta(r, q), q_euler(r, q))
    denom = dist.moment(n - r)
    if denom == 0:
        raise CaseSkip("law has a vanishing moment of the needed index")
    bos, ferm = LogPoly(), LogPoly()
    for l in range(r, n + 1):
        for m in range(n - l + 1):
            weight = prob_stirling2(dist, n - l, m) * math.comb(n, l)
            if weight == 0:
                continue
            term_b, term_f = integrate_weighted_term(dist, r, l, m, q)
            bos = bos + term_b * weight
            ferm = ferm + term_f * weight
    scale = F(1) / denom
    return lhs, (bos * scale, ferm * scale)


def _convolution_eval(family):
    """Shared shape of the two convolution identities (one per Appell-style
    family attached to the law): sum over j of binom(n, j) B(r, j) fam(n - j,
    conj) equals binom(n, r) X^r fam(n - r, 1)."""

    def evaluate(draw: CaseDraw, order: int):
        dist, point = draw.dist, draw.point
        r, n = draw.indices["r"], draw.indices["n"]
        x_val, conj, _ = _brackets(point)
        lhs = sum(
            math.comb(n, j) * _qb(dist, r, j, point) * family(dist, n - j, conj)
            for j in range(r, n + 1)
        )
        rhs = math.comb(n, r) * x_val**r * family(dist, n - r, F(1))
        return lhs, rhs

    return evaluate


def eval_t26_verbatim(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = x_val * _qb(dist, r - 1, n - 1, point) + one_minus * dist.moment(1) * _qb(
        dist, r, n - 1, point
    )
    return lhs, rhs


def eval_t26_corrected(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r = draw.indices["r"]
    x_val, _, one_minus = _brackets(point)
    m_series = dist.mgf_series(order)
    f_r = prob_qbernstein_gf(dist, r, point, order)
    lhs = f_r.derive()
    ratio = m_series.derive() * m_series.recip().truncate(order - 1)
    rhs = (x_val * prob_qbernstein_gf(dist, r - 1, point, order)).truncate(
        order - 1
    ) + one_minus * (f_r.truncate(order - 1) * ratio)
    return lhs, rhs


def _t27_eval(corrected: bool):
    def evaluate(draw: CaseDraw, order: int):
        dist, point = draw.dist, draw.point
        r, n = draw.indices["r"], draw.indices["n"]
        q = point.q
        lhs = laurent_x_derivation(_qb_laurent(dist, r, n, q))
        if r >= 1:
            scale = LogPoly({1: F(n) / (q - 1)})
            term1 = Laurent({1: 1}) * _qb_laurent(dist, r - 1, n - 1, q) * scale
        else:
            term1 = Laurent()
        inner = Laurent()
        for j in range(n):
            acc = F(0)
            for l in range(n - j):
                weight = math.factorial(l) if corrected else 1
                acc += (-1) ** l * weight * prob_stirling2(dist, n - j, l + 1)
            if acc != 0:
                inner = inner + math.comb(n, j) * acc * _qb_laurent(dist, r, j, q)
        term2 = Laurent({-1: q}) * inner * LogPoly({1: F(1) / (1 - q)})
        return lhs, term1 + term2

    return evaluate


def _t28_eval(verbatim: bool):
    def evaluate(draw: CaseDraw, order: int):
        dist, point = draw.dist, draw.point
        r, m = draw.indices["r"], draw.indices["m"]
        x_val, _, one_minus = _brackets(point)
        powered = dist.mgf_series(order).pow(one_minus)
        target = order - m

        def monomial_part(k, upto):
            coeff = x_val**k * F(1, math.factorial(k))
            if k > upto:
                return Series.zero(upto)
            return Series.monomial(k, coeff, upto)

        lhs = monomial_part(r, order) * powered
        for _ in range(m):
            lhs = lhs.derive()

        rhs = Series.zero(target)
        for l in range(m + 1):
            front = falling_factorial(r, l)
            if front == 0:
                continue
            if verbatim:
                scalar = (
                    math.comb(m, l)
                    * x_val**l
                    * front
                    * F(math.factorial(r - l), math.factorial(r))
                    * dist.moment(m - l)
                    * one_minus ** (m - l)
                )
                term = scalar * (monomial_part(r - l, order) * powered).truncate(target)
            else:
                g_part = powered
                for _ in range(m - l):
                    g_part = g_part.derive()
                f_part = Series.monomial(
                    r - l, x_val**r * front * F(1, math.factorial(r)), target
                ) if r - l <= target else Series.zero(target)
                term = math.comb(m, l) * (f_part * g_part.truncate(target))
            rhs = rhs + term
        return lhs, rhs

    return evaluate


def _t28_draw(pool):
    def draw(rng: random.Random) -> CaseDraw:
        dist = pool(rng)
        point = draw_qpoint(rng)
        r = rng.randrange(0, 4)
        m = rng.randrange(1, 4)
        return CaseDraw(dist, point, {"r": r, "m": m})

    return draw


def eval_t31(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = math.comb(n, r) * x_val**r * bell_poly(n - r, dist.alpha * one_minus)
    return lhs, rhs


def eval_t32_corrected(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = (
        math.comb(n, r)
        * x_val**r
        * sum(
            dist.alpha**m * one_minus**m * stirling2(n - r, m)
            for m in range(n - r + 1)
        )
    )
    return lhs, rhs


def eval_c31(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, _ = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = F(0)
    for m in range(n - r + 1):
        for l in range(m + 1):
            rhs += (
                (-1) ** l
                * dist.alpha**m
                * stirling2(n - r, m)
                * math.comb(n, r)
                * math.comb(m, l)
                * point.t ** (-m)
                * x_val ** (r + l)
            )
    return lhs, rhs


def eval_c32(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    q = point.q
    lhs = volkenborn(prob_qbernstein_laurent(dist, r, n, q), q)
    total = LogPoly()
    for m in range(n - r + 1):
        for l in range(m + 1):
            for j in range(l + r + 1):
                sign = 1 if (l + j - 1) % 2 == 0 else -1
                base = (
                    sign
                    * dist.alpha**m
                    * stirling2(n - r, m)
                    * math.comb(n, r)
                    * math.comb(m, l)
                    * math.comb(l + r, j)
                    / (1 - q) ** l
                )
                if base == 0:
                    continue
                if j == m:
                    token = LogPoly({-1: q - 1})
                else:
                    token = LogPoly({0: F(j - m) * (q - 1) / (q ** (j - m) - 1)})
                total = total + token * base
    rhs = LogPoly({1: F(1) / (1 - q) ** (r + 1)}) * total
    return lhs, rhs


def eval_c33(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    q = point.q
    lhs = fermionic(prob_qbernstein_laurent(dist, r, n, q), q)
    total = F(0)
    for m in range(n - r + 1):
        for l in range(m + 1):
            for j in range(l + r + 1):
                total += (
                    (-1) ** (l + j)
                    * dist.alpha**m
                    * stirling2(n - r, m)
                    * math.comb(n, r)
                    * math.comb(m, l)
                    * math.comb(l + r, j)
                    / (1 - q) ** l
                    / (1 + q ** (j - m))
                )
    rhs = LogPoly({0: F(2) / (1 - q) ** r * total})
    return lhs, rhs


def eval_t33(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = (
        x_val**r
        * math.comb(n, r)
        * sum(
            dist.p1**m * falling_factorial(one_minus, m) * stirling2(n - r, m)
            for m in range(n - r + 1)
        )
    )
    return lhs, rhs


def eval_t34_corrected(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = (
        x_val**r
        * math.comb(n, r)
        * sum(
            dist.p1**m
            * falling_factorial(dist.trials * one_minus, m)
            * stirling2(n - r, m)
            for m in range(n - r + 1)
        )
    )
    return lhs, rhs


def eval_t35(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    u = 1 - dist.p1
    if u == 1:
        raise CaseSkip("failure probability 1 is outside the law's range")
    lhs = (-1) ** (n - r) * prob_qbernstein(dist, r, n, point)
    rhs = x_val**r * math.comb(n, r) * frobenius_euler(n - r, one_minus, F(0), u)
    return lhs, rhs


def _t36_inverse_u(dist):
    q1 = 1 - dist.p1
    if q1 == 0:
        raise CaseSkip("degenerate parameter: no inverse failure probability")
    return F(1) / q1


def eval_t36_verbatim(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    _, _, one_minus = _brackets(point)
    u = _t36_inverse_u(dist)
    a = dist.successes
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = F(0)
    for l in range(r, n + 1):
        rhs += (
            math.comb(n, l)
            * F(a) ** (n - l)
            * bernstein_classical(r, l, point.x)
            * frobenius_euler(n - l, a * one_minus, F(0), u)
        )
    return lhs, rhs


def eval_t36_corrected(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, _, one_minus = _brackets(point)
    u = _t36_inverse_u(dist)
    a = dist.successes
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = (
        math.comb(n, r)
        * x_val**r
        * sum(
            math.comb(n - r, k)
            * (a * one_minus) ** k
            * frobenius_euler(n - r - k, a * one_minus, F(0), u)
            for k in range(n - r + 1)
        )
    )
    return lhs, rhs


def eval_t37(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x_val, conj, _ = _brackets(point)
    lhs = prob_qbernstein(dist, r, n, point)
    rhs = math.comb(n, r) * x_val**r * higher_bernoulli(n - r, conj - 1, F(0))
    return lhs, rhs


def eval_r21(draw: CaseDraw, order: int):
    dist, point = draw.dist, draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    x = point.x
    lhs = prob_qbernstein(dist, r, n, point)
    direct = Series.monomial(r, x**r * F(1, math.factorial(r)), n) * dist.mgf_series(
        n
    ).pow(1 - x)
    return lhs, direct.egf_coeff(n)


def eval_r22(draw: CaseDraw, order: int):
    point = draw.point
    r, n = draw.indices["r"], draw.indices["n"]
    lhs = prob_qbernstein(Constant(F(1)), r, n, point)
    rhs = bernstein_classical(r, n, point.x)
    return lhs, rhs


def _classical_draw_rn(with_law: bool):
    def draw(rng: random.Random) -> CaseDraw:
        dist = draw_law(rng) if with_law else Constant(F(1))
        point = draw_classical_point(rng)
        r, n = _draw_rn(rng)
        return CaseDraw(dist, point, {"r": r, "n": n})

    return draw


# ---------------------------------------------------------------------------
# the registry

REGISTRY: list[IdentityCase] = [
    IdentityCase(
        "P-BRKT", "verbatim",
        "bracket difference, negation, inverse-base and complement rules",
        "pass", draw_bracket_properties, eval_bracket_properties,
    ),
    IdentityCase(
        "P-110", "verbatim",
        "power of the complement bracket equals its alternating Laurent expansion",
        "pass", draw_one_minus_power, eval_one_minus_power,
    ),
    IdentityCase(
        "P-LOG", "verbatim",
        "log of the MGF as an alternating sum of law-dependent partition numbers",
        "record", _dist_only_draw, _log_expansion_eval(corrected=False),
        notes="stated without the factorial weight on the inner index",
    ),
    IdentityCase(
        "P-LOG", "corrected",
        "log of the MGF with the factorial weight restored",
        "pass", _dist_only_draw, _log_expansion_eval(corrected=True),
    ),
    IdentityCase(
        "T2.1", "verbatim",
        "expansion over law-dependent partition numbers times higher-order "
        "Appell-type coefficients",
        "pass", _point_draw_rn(draw_law), eval_t21,
        notes="the two auxiliary families are fixed by their generating factors",
    ),
    IdentityCase(
        "T2.2", "verbatim",
        "explicit double-sum expansion (as printed)",
        "skip", None, None,
        notes="the printed form reuses the fixed lower index as a bound "
        "summation index; no well-defined verbatim reading exists",
    ),
    IdentityCase(
        "T2.2", "corrected",
        "explicit double-sum expansion with separated summation indices",
        "pass", _point_draw_rn(draw_law), eval_t22_corrected,
    ),
    IdentityCase(
        "T2.3", "corrected",
        "bracket power recovered from weighted family values",
        "pass", _point_draw_rn(draw_law), eval_t23,
        notes="inner sum starts at the lower index; lower terms vanish anyway",
    ),
    IdentityCase(
        "C2.1", "verbatim",
        "both integral operators applied to the bracket-power recovery",
        "record", _point_draw_rn(draw_law), eval_c21,
        notes="as printed the normalizing binomial of the recovery identity "
        "is dropped; both operator values are reported",
    ),
    IdentityCase(
        "T2.4", "verbatim",
        "convolution against the law's alternating Appell family",
        "pass", _point_draw_rn(draw_law), _convolution_eval(prob_euler),
        notes="sum read from the lower index; smaller terms are zero",
    ),
    IdentityCase(
        "T2.5", "verbatim",
        "convolution against the law's Bernoulli-type Appell family",
        "pass", _point_draw_rn(draw_law), _convolution_eval(prob_bernoulli),
        notes="sum read from the lower index; smaller terms are zero",
    ),
    IdentityCase(
        "T2.6", "verbatim",
        "two-term degree recurrence with the mean as the only law datum",
        "record", _point_draw_rn(draw_law, n_min=1), eval_t26_verbatim,
        notes="the derivation replaces the derivative of the MGF by mean "
        "times MGF, exact only for single-point laws",
    ),
    IdentityCase(
        "T2.6", "verbatim-const",
        "two-term degree recurrence on single-point laws",
        "pass", _point_draw_rn(draw_constant_law, n_min=1), eval_t26_verbatim,
    ),
    IdentityCase(
        "T2.6", "corrected",
        "series-level derivative recurrence with the exact logarithmic factor",
        "pass", _point_draw_rn(draw_law), eval_t26_corrected,
    ),
    IdentityCase(
        "T2.7", "verbatim",
        "exponent-variable derivative as a formal-log Laurent identity",
        "record", _point_draw_rn(draw_law, n_min=1, n_max=5),
        _t27_eval(corrected=False),
    ),
    IdentityCase(
        "T2.7", "corrected",
        "exponent-variable derivative with the factorial weight restored "
        "in the logarithmic expansion",
        "record", _point_draw_rn(draw_law, n_min=1, n_max=5),
        _t27_eval(corrected=True),
    ),
    IdentityCase(
        "T2.8", "verbatim",
        "m-fold series derivative via the product rule with the power-law "
        "shortcut for the MGF factor",
        "record", _t28_draw(draw_law), _t28_eval(verbatim=True),
    ),
    IdentityCase(
        "T2.8", "verbatim-const",
        "m-fold series derivative shortcut on single-point laws",
        "pass", _t28_draw(draw_constant_law), _t28_eval(verbatim=True),
    ),
    IdentityCase(
        "T2.8", "corrected",
        "m-fold series derivative via the exact product rule",
        "pass", _t28_draw(draw_law), _t28_eval(verbatim=False),
    ),
    IdentityCase(
        "T3.1", "verbatim",
        "Poisson law: values reduce to Bell polynomial evaluations",
        "pass", _point_draw_rn(LAW_POOLS["poisson"]), eval_t31,
    ),
    IdentityCase(
        "T3.2", "corrected",
        "Poisson law: partition-number expansion with the complement-bracket "
        "power restored",
        "pass", _point_draw_rn(LAW_POOLS["poisson"]), eval_t32_corrected,
    ),
    IdentityCase(
        "C3.1", "verbatim",
        "Poisson law: fully expanded double sum in powers of t",
        "pass", _point_draw_rn(LAW_POOLS["poisson"]), eval_c31,
    ),
    IdentityCase(
        "C3.2", "verbatim",
        "Poisson law: bosonic integral versus the printed closed form",
        "record", _point_draw_rn(LAW_POOLS["poisson"]), eval_c32,
        notes="the printed prefactor and index token are evaluated literally, "
        "with the zero token read as the formal-log limit value",
    ),
    IdentityCase(
        "C3.3", "verbatim",
        "Poisson law: fermionic integral versus the printed closed form",
        "record", _point_draw_rn(LAW_POOLS["poisson"]), eval_c33,
    ),
    IdentityCase(
        "T3.3", "verbatim",
        "Bernoulli law: falling-factorial partition expansion",
        "pass", _point_draw_rn(LAW_POOLS["bernoulli"]), eval_t33,
    ),
    IdentityCase(
        "T3.4", "corrected",
        "Binomial law: falling factorial taken at the trial count times the "
        "complement bracket",
        "pass", _point_draw_rn(LAW_POOLS["binomial"]), eval_t34_corrected,
        notes="the printed argument reuses the series index where the trial "
        "count belongs",
    ),
    IdentityCase(
        "T3.5", "verbatim",
        "Geometric law: signed reduction to Frobenius-Euler values",
        "pass", _point_draw_rn(LAW_POOLS["geometric"]), eval_t35,
        notes="read with the failure probability as the deformation "
        "parameter, order the complement bracket, argument zero",
    ),
    IdentityCase(
        "T3.6", "verbatim",
        "Negative-binomial law: mixed classical-basis expansion (as printed)",
        "record", _point_draw_rn(LAW_POOLS["negbinomial"]), eval_t36_verbatim,
    ),
    IdentityCase(
        "T3.6", "corrected",
        "Negative-binomial law: exponential-shift expansion derived from the "
        "MGF factorization",
        "pass", _point_draw_rn(LAW_POOLS["negbinomial"]), eval_t36_corrected,
    ),
    IdentityCase(
        "T3.7", "verbatim",
        "Uniform law: reduction to higher-order Bernoulli numbers",
        "pass", _point_draw_rn(LAW_POOLS["uniform01"]), eval_t37,
    ),
    IdentityCase(
        "R2.1", "verbatim",
        "classical mode agrees with the plain-x construction",
        "pass", _classical_draw_rn(with_law=True), eval_r21,
    ),
    IdentityCase(
        "R2.2", "verbatim",
        "classical mode at the unit law is the classical basis",
        "pass", _classical_draw_rn(with_law=False), eval_r22,
    ),
]


# ---------------------------------------------------------------------------
# the runner

def run_case(case: IdentityCase, draw: CaseDraw, order: int) -> AuditRecord:
    """Evaluate both sides of one case on one draw and build the record.  A
    case whose evaluation raises a ValueError or an ArithmeticError gives an
    ERROR record naming the exception, so the rest of the run goes on."""
    rho, c, d = _render_point(draw.point)
    head = (
        case.id, case.variant, draw.dist.name if draw.dist is not None else "-",
        _render_params(draw), rho, c, d, order,
    )
    if case.evaluate is None:
        return AuditRecord(*head, "SKIP", "-", "-", "-")
    try:
        lhs, rhs = case.evaluate(draw, order)
    except CaseSkip:
        return AuditRecord(*head, "SKIP", "-", "-", "-")
    except (ValueError, ArithmeticError) as exc:
        return AuditRecord(*head, "ERROR", "-", "-", f"{type(exc).__name__}: {exc}")
    status = "PASS" if _values_equal(lhs, rhs) else "FAIL"
    return AuditRecord(
        *head, status, render_value(lhs), render_value(rhs),
        render_value(_values_diff(lhs, rhs)),
    )


def _render_params(draw: CaseDraw) -> str:
    parts = []
    if draw.dist is not None:
        ps = draw.dist.param_string()
        if ps:
            parts.append(ps)
    for key in sorted(draw.indices):
        value = draw.indices[key]
        parts.append(f"{key}={value}")
    return ";".join(parts) if parts else "-"


def _render_point(point: QPoint | None) -> tuple[str, int, int]:
    if point is None:
        return "-", 0, 0
    if point.is_classical:
        return "1", point.c, point.d
    return str(point.rho), point.c, point.d


def run_all(seed: int, trials: int, order: int) -> AuditReport:
    """Run every registered case on ``trials`` seeded draws each.

    The per-case random stream is derived from (seed, id, variant, trial), so
    records do not depend on registry order and the whole report is
    byte-reproducible for a fixed seed.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if order < MAX_DRAWN_INDEX:
        raise ValueError(f"order below the largest drawn index {MAX_DRAWN_INDEX}")
    report = AuditReport(seed=seed, trials=trials, order=order)
    for case in sorted(REGISTRY, key=lambda cs: (cs.id, cs.variant)):
        for trial in range(trials):
            if case.draw is None:
                draw = CaseDraw(None, None, {})
            else:
                rng = random.Random(f"{seed}:{case.id}:{case.variant}:{trial}")
                draw = case.draw(rng)
            report.records.append(run_case(case, draw, order))
    return report
