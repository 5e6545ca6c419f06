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
          the report shows it was considered, with the ambiguity in notes,
          and its evaluator raises :class:`CaseSkip` on every draw.

Variant names: "verbatim" evaluates the claim as printed (under the
charitable index conventions listed in the case notes), "corrected" evaluates
the repaired form, and "verbatim-const" restricts a verbatim claim to
degenerate single-point laws, the regime where its derivation step is exact.

A case's :class:`Drawer` draws a law, then a point, then its indices, each
from a domain, a plain value that :func:`enumerate_indices` lists.  Each axis
of a domain takes one ``rng.choice``: over a grid, (name, values), or over
low..high, (name, low, high), where high is an int, an earlier axis's name or
(name, offset).  An index domain is a tuple of axes; a law or point domain, of
kinds: each a constructor and the axes of its keyword arguments, and a kind is
picked only among several.  P-BRKT alone draws by a function.  An evaluator,
``evaluate(dist, p, order, **indices)``, returns (lhs, rhs) or raises CaseSkip.
Shapes that several cases share are written once: the reduction to
binom(n, r) X^r times a closed-form tail (:func:`_reduction_eval`), the
convolution, the recovery of X^r (T2.3, C2.1), the printed Poisson integral
(C3.2, C3.3) and the product rule (T2.8), whose lhs is the family's one
generating function, :func:`~qbernstein.families.prob_qbernstein_gf`, and
whose rhs sums shifted derivatives of M^X1.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import partial
from io import StringIO

from .distributions import (
    Bernoulli,
    Binomial,
    Constant,
    Geometric,
    NegBinomial,
    Poisson,
    Uniform01,
    mgf_table,
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
from .qcalc import QPoint, one_minus_bracket_power
from .rings import Laurent, LogPoly, _count, _index, falling_factorial, laurent_x_derivation
from .series import Series

F = Fraction


class CaseSkip(Exception):
    """Raised by an evaluator when the drawn inputs violate a precondition."""


CaseDraw = namedtuple("CaseDraw", "dist point indices")

# draw(rng) -> CaseDraw, and evaluate as in the module docstring.
IdentityCase = namedtuple(
    "IdentityCase", "id variant statement expected draw evaluate notes", defaults=("",)
)


class AuditRecord(
    namedtuple("AuditRecord", "id variant dist params rho c d order status lhs rhs difference")
):
    __slots__ = ()

    def stable_dict(self) -> dict:
        """Every field but ``difference``, in field order."""
        row = self._asdict()
        del row["difference"]
        return row


class AuditReport:
    def __init__(self):
        self.records = []

    def expected_pass_failures(self) -> list:
        expectation = _expectations()
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
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerows([AuditRecord._fields, *self.records])
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
        expectation = _expectations()
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


def _expectations() -> dict:
    """(id, variant) -> the expectation class of that registry entry."""
    return {(c.id, c.variant): c.expected for c in REGISTRY}


_LATEX_ESCAPES = str.maketrans(
    {**{ch: "\\" + ch for ch in "&%$#_{}"}, "^": r"\^{}", "\\": r"\textbackslash{}"}
)


def _latex_escape(text) -> str:
    return str(text).translate(_LATEX_ESCAPES)


# ---------------------------------------------------------------------------
# value rendering

def render_value(v) -> str:
    if isinstance(v, tuple):
        return "(" + " | ".join(render_value(x) for x in v) + ")"
    return str(v)


def _values_diff(lhs, rhs):
    """lhs - rhs, elementwise for tuples; "-" for sides of different shapes."""
    if isinstance(lhs, tuple) or isinstance(rhs, tuple):
        if type(lhs) is not type(rhs) or len(lhs) != len(rhs):
            return "-"
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
D_GRID = [2, 3, 4]

# The index domain of most cases: n in 0..6, then r in 0..n.
RN_INDICES = (("n", 0, 6), ("r", 0, "n"))
RM_INDICES = (("r", 0, 3), ("m", 1, 3))


# A law's axes are named by its _fields; the order of LAWS is part of every seeded draw.
POISSON = ((Poisson, (("alpha", ALPHA_GRID),)),)
BERNOULLI = ((Bernoulli, (("p1", P1_GRID),)),)
BINOMIAL = ((Binomial, (("trials", TRIALS_GRID), ("p1", P1_GRID))),)
GEOMETRIC = ((Geometric, (("p1", P1_GRID),)),)
NEGBINOMIAL = ((NegBinomial, (("successes", SUCCESSES_GRID), ("p1", P1_GRID))),)
UNIFORM01 = ((Uniform01, ()),)
LAWS = POISSON + BERNOULLI + BINOMIAL + GEOMETRIC + NEGBINOMIAL + UNIFORM01
CONSTANTS = ((Constant, (("value", CONST_GRID),)),)
UNIT = ((partial(Constant, F(1)), ()),)
Q_POINTS = ((QPoint, (("rho", RHO_GRID), ("d", D_GRID), ("c", 1, ("d", -1)))),)
# A classical point holds c/d in lowest terms, so (c, d) = (2, 4) draws x = 1/2 as (1, 2) does.
CLASSICAL_POINTS = ((partial(QPoint, None), (("d", D_GRID), ("c", 1, ("d", -1)))),)


def _axis_values(axis, drawn: dict):
    """An axis's values, once the axes before it are ``drawn``."""
    if len(axis) == 2:
        return axis[1]
    _, low, high = axis
    if not isinstance(high, int):
        name, offset = (high, 0) if isinstance(high, str) else high
        high = drawn[name] + offset
    return range(low, high + 1)


def enumerate_indices(domain) -> list:
    """Every value ``domain`` can draw, in order: an index dict, a law or a point."""
    if domain and callable(domain[0][0]):  # a tuple of kinds
        return [make(**args) for make, axes in domain for args in enumerate_indices(axes)]
    dicts = [{}]
    for axis in domain:
        dicts = [{**d, axis[0]: v} for d in dicts for v in _axis_values(axis, d)]
    return dicts


def _draw(domain, rng: random.Random):
    """One value drawn from ``domain``, if any: its kind among several, then each axis."""
    if domain is None:
        return None
    if domain and callable(domain[0][0]):  # a tuple of kinds
        make, axes = rng.choice(domain) if len(domain) > 1 else domain[0]
        return make(**_draw(axes, rng))
    drawn = {}
    for axis in domain:
        drawn[axis[0]] = rng.choice(_axis_values(axis, drawn))
    return drawn


class Drawer(namedtuple("Drawer", "law point indices", defaults=(None, None, RN_INDICES))):
    """Draw a law, then a point, then the indices; seeded draws depend on that order."""

    __slots__ = ()

    def __call__(self, rng: random.Random) -> CaseDraw:
        return CaseDraw(*[_draw(domain, rng) for domain in self])


def _qb(dist, r, n, point):
    """Family value with out-of-range lower index read as zero."""
    return prob_qbernstein(dist, r, n, point) if 0 <= r <= n else F(0)


def _qb_laurent(dist, r, n, q):
    return prob_qbernstein_laurent(dist, r, n, q) if 0 <= r <= n else Laurent()


# ---------------------------------------------------------------------------
# evaluators; each returns (lhs, rhs) computed by disjoint routes


def eval_bracket_properties(dist, p1, order, rho, d, c1, c2):
    p2 = QPoint(rho, c2, d)
    # definition route: the bracket of x at the derived points
    conj_def = QPoint(1 / rho, c1, d).X
    one_minus_def = QPoint(rho, d - c1, d).X
    lhs = (
        QPoint(rho, c1 - c2, d).X, QPoint(rho, -c1, d).X, conj_def, one_minus_def,
        (p1.Xc, p1.X1),
    )
    # the rules applied to the drawn point
    rhs = (
        p1.X - p1.t / p2.t * p2.X,
        -(p1.t ** (-1)) * p1.X,
        (p1.q / p1.t) * p1.X,
        1 - conj_def,
        (conj_def, one_minus_def),
    )
    return lhs, rhs


def draw_bracket_properties(rng: random.Random) -> CaseDraw:
    rho = rng.choice(RHO_GRID)
    d = rng.choice(D_GRID)
    c1 = rng.randrange(1, 2 * d + 1)
    c2 = rng.randrange(1, 2 * d + 1)
    return CaseDraw(None, QPoint(rho, c1, d), {"rho": rho, "d": d, "c1": c1, "c2": c2})


def eval_one_minus_power(dist, p, order, m):
    scalar, expansion = one_minus_bracket_power(p, m)
    direct = p.t ** (-m) * sum(
        math.comb(m, l) * (-1) ** l * p.X**l for l in range(m + 1)
    )
    return (scalar, scalar), (expansion.substitute(p.t), direct)


def _alternating_stirling_parts(dist, k: int, corrected: bool) -> tuple[int, int]:
    """The sum over l < k of (-1)^l w_l S_Y(k, l + 1), with the weight w_l = l!
    (corrected) or 1 (verbatim), as an integer and D_k, the denominator of its
    Bell row A_(l+1)(k); corrected, the sum is k! [v^k] log M.  One integer
    dot product with that row."""
    parts, den = mgf_table(dist).bell_parts(k)
    total, weight = 0, 1
    for l in range(k):
        total += weight * parts[l + 1]
        weight *= -(l + 1) if corrected else -1
    return total, den


def _log_expansion_eval(corrected: bool):
    """log M against the series whose coefficient of v^k is the alternating
    Stirling sum over k!, that is its integer over D_k k!.  The integers go
    to one ``Series.over`` over the lcm of the D_k k!, normalised once."""

    def evaluate(dist, p, order):
        lhs = dist.mgf_series(order).log()
        parts = [_alternating_stirling_parts(dist, k, corrected) for k in range(1, order + 1)]
        dens = [dk * math.factorial(k) for k, (_, dk) in enumerate(parts, 1)]
        den = math.lcm(*dens)
        nums = [0] + [total * (den // d) for (total, _), d in zip(parts, dens)]
        return lhs, Series.over(nums, den)

    return evaluate


def _skip_mean_zero(dist):
    if dist.moment(1) == 0:
        raise CaseSkip("law has mean zero; v/(M - 1) is undefined")


def eval_t21(dist, p, order, r, n):
    if r:
        _skip_mean_zero(dist)
    lhs = prob_qbernstein(dist, r, n, p)
    rhs = sum(
        math.comb(n, m)
        * prob_stirling2(dist, n - m, r)
        * prob_bernoulli_higher(dist, m, r, p.X1)
        for m in range(n + 1)
    ) * p.X**r
    return lhs, rhs


def _reduction_eval(tail):
    """Shared shape of the closed-form reductions: the family value equals
    binom(n, r) X^r tail(dist, n - r, point), where the tail is a closed form
    for (n - r)! [v^(n - r)] M^X1 in the law's own special numbers."""

    def evaluate(dist, p, order, r, n):
        return prob_qbernstein(dist, r, n, p), math.comb(n, r) * p.X**r * tail(dist, n - r, p)

    return evaluate


def _t22_tail(dist, k, p):
    """The sum over l of binom(k, l) E[Y^(k - l)] times the sum over j of
    (-Xc)_j S_Y(l, j)."""
    return sum(
        math.comb(k, l)
        * sum(falling_factorial(-p.Xc, j) * prob_stirling2(dist, l, j) for j in range(l + 1))
        * dist.moment(k - l)
        for l in range(k + 1)
    )


def _stirling_sum(k, weight):
    """The sum over m <= k of weight(m) S(k, m)."""
    return sum(weight(m) * stirling2(k, m) for m in range(k + 1))


def _recovery_weights(dist, r, n) -> list:
    """The terms (l, m, S_Y(n - l, m) binom(n, l) / E[Y^(n - r)]), r <= l <= n and
    m <= n - l, recovering X^r from the values B(r, l) (T2.3) or their integrals (C2.1)."""
    moment = dist.moment(n - r)
    if moment == 0:
        raise CaseSkip("law has a vanishing moment of the needed index")
    return [
        (l, m, prob_stirling2(dist, n - l, m) * math.comb(n, l) / moment)
        for l in range(r, n + 1)
        for m in range(n - l + 1)
    ]


def eval_t23(dist, p, order, r, n):
    lhs = p.X**r
    weights = _recovery_weights(dist, r, n)
    values = {l: prob_qbernstein(dist, r, l, p) for l in range(r, n + 1)}
    rhs = sum(
        w * falling_factorial(p.Xc, m) * values[l] for l, m, w in weights
    ) / math.comb(n, r)
    return lhs, rhs


def eval_c21(dist, p, order, r, n):
    q = p.q
    lhs = (carlitz_beta(r, q), q_euler(r, q))
    bos, ferm = LogPoly(), LogPoly()
    for l, m, w in _recovery_weights(dist, r, n):
        if w != 0:
            term_b, term_f = integrate_weighted_term(dist, r, l, m, q)
            bos, ferm = bos + term_b * w, ferm + term_f * w
    return lhs, (bos, ferm)


def _convolution_eval(family):
    """Shared shape of the two convolution identities (one per Appell-style
    family attached to the law): sum over j of binom(n, j) B(r, j) fam(n - j,
    conj) equals binom(n, r) X^r fam(n - r, 1)."""

    def evaluate(dist, p, order, r, n):
        lhs = sum(
            math.comb(n, j) * prob_qbernstein(dist, r, j, p) * family(dist, n - j, p.Xc)
            for j in range(r, n + 1)
        )
        rhs = math.comb(n, r) * p.X**r * family(dist, n - r, F(1))
        return lhs, rhs

    return evaluate


def eval_t25(dist, p, order, r, n):
    _skip_mean_zero(dist)
    return _convolution_eval(prob_bernoulli)(dist, p, order, r=r, n=n)


def eval_t26_verbatim(dist, p, order, r, n):
    lhs = prob_qbernstein(dist, r, n, p)
    rhs = p.X * _qb(dist, r - 1, n - 1, p) + p.X1 * dist.moment(1) * _qb(dist, r, n - 1, p)
    return lhs, rhs


def eval_t26_corrected(dist, p, order, r, n):
    m_series = dist.mgf_series(order)
    f_r = prob_qbernstein_gf(dist, r, p, order)
    lhs = f_r.derive()
    ratio = m_series.derive() * m_series.recip().truncate(order - 1)
    f_lower = prob_qbernstein_gf(dist, r - 1, p, order) if r else Series.zero(order)
    rhs = (p.X * f_lower).truncate(order - 1) + p.X1 * (f_r.truncate(order - 1) * ratio)
    return lhs, rhs


def _t27_eval(corrected: bool):
    def evaluate(dist, p, order, r, n):
        q = p.q
        lhs = laurent_x_derivation(_qb_laurent(dist, r, n, q))
        scale = LogPoly({1: F(n) / (q - 1)})
        term1 = Laurent({1: 1}) * _qb_laurent(dist, r - 1, n - 1, q) * scale
        inner = Laurent()
        for j in range(r, n):  # P(r, j) is zero for j < r
            total, den = _alternating_stirling_parts(dist, n - j, corrected)
            if total:
                inner = inner + F(math.comb(n, j) * total, den) * _qb_laurent(dist, r, j, q)
        term2 = Laurent({-1: q}) * inner * LogPoly({1: F(1) / (1 - q)})
        return lhs, term1 + term2

    return evaluate


def _t28_eval(verbatim: bool):
    """The m-th derivative of f g, f = (X v)^r / r! and g = M^X1, against the
    sum over l <= min(r, m) of binom(m, l) f^(l) g_l, each g_l shifted up by
    r - l, as f^(l) = X^r (r)_l / r! v^(r - l).  Corrected, g_l is the (m - l)-th
    derivative of g; verbatim, the shortcut E[Y^(m - l)] X1^(m - l) g.  f g is
    :func:`prob_qbernstein_gf`; g is raised by Series.pow.  The rhs sums the
    integer numerators of c_l g_l over one lcm and is normalised once."""

    def evaluate(dist, p, order, r, m):
        lhs = prob_qbernstein_gf(dist, r, p, order)
        for _ in range(m):
            lhs = lhs.derive()
        g = dist.mgf_series(order).pow(p.X1)
        terms = []
        for l in range(min(r, m) + 1):
            c = math.comb(m, l) * p.X**r * falling_factorial(r, l) / math.factorial(r)
            if verbatim:
                c *= dist.moment(m - l) * p.X1 ** (m - l)
            g_l = g
            for _ in range(0 if verbatim else m - l):
                g_l = g_l.derive()
            terms.append((r - l, c.numerator, c.denominator * g_l.den, g_l.nums))
        den = math.lcm(*(term[2] for term in terms))
        rhs = [0] * (order - m + 1)
        for shift, num, term_den, nums in terms:
            scale = num * (den // term_den)
            for i in range(shift, len(rhs)):
                rhs[i] += scale * nums[i - shift]
        return lhs, Series.over(rhs, den)

    return evaluate


def _c3_printed_sum(dist, r, n, q, token) -> LogPoly:
    """The triple sum of the printed Poisson closed forms (C3.2, C3.3): over
    m <= n - r, l <= m and j <= l + r, the nonzero terms alpha^m S(n - r, m)
    binom(n, r) binom(m, l) binom(l + r, j) / (1 - q)^l times token(m, l, j) =
    (e, c), the term c L^e; one Fraction per e, one LogPoly at the end."""
    total = {}
    for m in range(n - r + 1):
        outer = dist.alpha**m * stirling2(n - r, m) * math.comb(n, r)
        if outer == 0:
            continue
        for l in range(m + 1):
            inner = outer * math.comb(m, l) / (1 - q) ** l
            for j in range(l + r + 1):
                e, c = token(m, l, j)
                total[e] = total.get(e, 0) + c * (inner * math.comb(l + r, j))
    return LogPoly(total)


def eval_c32(dist, p, order, r, n):
    q = p.q

    def token(m, l, j):
        # the zero index token is read as its formal-log limit value
        sign = (-1) ** (l + j + 1)
        if j == m:
            return -1, sign * (q - 1)
        return 0, sign * F(j - m) * (q - 1) / (q ** (j - m) - 1)

    lhs = volkenborn(prob_qbernstein_laurent(dist, r, n, q), q)
    rhs = LogPoly({1: F(1) / (1 - q) ** (r + 1)}) * _c3_printed_sum(dist, r, n, q, token)
    return lhs, rhs


def eval_c33(dist, p, order, r, n):
    q = p.q
    lhs = fermionic(prob_qbernstein_laurent(dist, r, n, q), q)
    total = _c3_printed_sum(
        dist, r, n, q, lambda m, l, j: (0, F((-1) ** (l + j)) / (1 + q ** (j - m)))
    )
    return lhs, LogPoly({0: F(2) / (1 - q) ** r}) * total


def eval_t35(dist, p, order, r, n):
    u = 1 - dist.p1
    lhs = (-1) ** (n - r) * prob_qbernstein(dist, r, n, p)
    rhs = p.X**r * math.comb(n, r) * frobenius_euler(n - r, p.X1, F(0), u)
    return lhs, rhs


def _t36_inverse_u(dist):
    q1 = 1 - dist.p1
    if q1 == 0:
        raise CaseSkip("degenerate parameter: no inverse failure probability")
    return F(1) / q1


def eval_t36_verbatim(dist, p, order, r, n):
    u = _t36_inverse_u(dist)
    a = dist.successes
    lhs = prob_qbernstein(dist, r, n, p)
    rhs = F(0)
    for l in range(r, n + 1):
        rhs += (
            math.comb(n, l)
            * F(a) ** (n - l)
            * bernstein_classical(r, l, p.x)
            * frobenius_euler(n - l, a * p.X1, F(0), u)
        )
    return lhs, rhs


def _t36_tail(dist, k, p):
    """The sum over j of binom(k, j) (a X1)^j times the Frobenius-Euler value of
    index k - j, order a X1 and parameter 1/(1 - p)."""
    u, ax1 = _t36_inverse_u(dist), dist.successes * p.X1
    return sum(
        math.comb(k, j) * ax1**j * frobenius_euler(k - j, ax1, F(0), u)
        for j in range(k + 1)
    )


def eval_r21(dist, p, order, r, n):
    x = p.x
    lhs = prob_qbernstein(dist, r, n, p)
    tail = dist.mgf_series(n - r).pow(1 - x).coeffs[n - r]
    return lhs, math.perm(n, n - r) * x**r * tail


def eval_r22(dist, p, order, r, n):
    return prob_qbernstein(dist, r, n, p), bernstein_classical(r, n, p.x)


def _skip_t22_verbatim(dist, p, order):
    raise CaseSkip("the printed form reuses the fixed lower index as a summation index")


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
        "pass", Drawer(point=Q_POINTS, indices=(("m", 0, 8),)),
        eval_one_minus_power,
    ),
    IdentityCase(
        "P-LOG", "verbatim",
        "log of the MGF as an alternating sum of law-dependent partition numbers",
        "record", Drawer(LAWS, indices=()),
        _log_expansion_eval(corrected=False),
        notes="stated without the factorial weight on the inner index",
    ),
    IdentityCase(
        "P-LOG", "corrected",
        "log of the MGF with the factorial weight restored",
        "pass", Drawer(LAWS, indices=()),
        _log_expansion_eval(corrected=True),
    ),
    IdentityCase(
        "T2.1", "verbatim",
        "expansion over law-dependent partition numbers times higher-order "
        "Appell-type coefficients",
        "pass", Drawer(LAWS, Q_POINTS), eval_t21,
        notes="the two auxiliary families are fixed by their generating factors",
    ),
    IdentityCase(
        "T2.2", "verbatim",
        "explicit double-sum expansion (as printed)",
        "skip", Drawer(indices=()), _skip_t22_verbatim,
        notes="the printed form reuses the fixed lower index as a bound "
        "summation index; no well-defined verbatim reading exists",
    ),
    IdentityCase(
        "T2.2", "corrected",
        "explicit double-sum expansion with separated summation indices",
        "pass", Drawer(LAWS, Q_POINTS), _reduction_eval(_t22_tail),
    ),
    IdentityCase(
        "T2.3", "corrected",
        "bracket power recovered from weighted family values",
        "pass", Drawer(LAWS, Q_POINTS), eval_t23,
        notes="inner sum starts at the lower index; lower terms vanish anyway",
    ),
    IdentityCase(
        "C2.1", "verbatim",
        "both integral operators applied to the bracket-power recovery",
        "record", Drawer(LAWS, Q_POINTS), eval_c21,
        notes="as printed the normalizing binomial of the recovery identity "
        "is dropped; both operator values are reported",
    ),
    IdentityCase(
        "T2.4", "verbatim",
        "convolution against the law's alternating Appell family",
        "pass", Drawer(LAWS, Q_POINTS), _convolution_eval(prob_euler),
        notes="sum read from the lower index; smaller terms are zero",
    ),
    IdentityCase(
        "T2.5", "verbatim",
        "convolution against the law's Bernoulli-type Appell family",
        "pass", Drawer(LAWS, Q_POINTS), eval_t25,
        notes="sum read from the lower index; smaller terms are zero",
    ),
    IdentityCase(
        "T2.6", "verbatim",
        "two-term degree recurrence with the mean as the only law datum",
        "record", Drawer(LAWS, Q_POINTS, (("n", 1, 6), ("r", 0, "n"))),
        eval_t26_verbatim,
        notes="the derivation replaces the derivative of the MGF by mean "
        "times MGF, exact only for single-point laws",
    ),
    IdentityCase(
        "T2.6", "verbatim-const",
        "two-term degree recurrence on single-point laws",
        "pass", Drawer(CONSTANTS, Q_POINTS, (("n", 1, 6), ("r", 0, "n"))),
        eval_t26_verbatim,
    ),
    IdentityCase(
        "T2.6", "corrected",
        "series-level derivative recurrence with the exact logarithmic factor",
        "pass", Drawer(LAWS, Q_POINTS), eval_t26_corrected,
    ),
    IdentityCase(
        "T2.7", "verbatim",
        "exponent-variable derivative as a formal-log Laurent identity",
        "record", Drawer(LAWS, Q_POINTS, (("n", 1, 5), ("r", 0, "n"))),
        _t27_eval(corrected=False),
    ),
    IdentityCase(
        "T2.7", "corrected",
        "exponent-variable derivative with the factorial weight restored "
        "in the logarithmic expansion",
        "pass", Drawer(LAWS, Q_POINTS, (("n", 1, 5), ("r", 0, "n"))),
        _t27_eval(corrected=True),
        notes="d/dx of (vX)^r/r! M^X1 with dt/dx = t L is n t L/(q - 1) P(r - 1, n - 1) "
        "plus (q/t) L/(1 - q) times the sum over j < n of binom(n, j) [log M]_(n - j) "
        "P(r, j), where [log M]_k is the P-LOG corrected sum",
    ),
    IdentityCase(
        "T2.8", "verbatim",
        "m-fold series derivative via the product rule with the power-law "
        "shortcut for the MGF factor",
        "record", Drawer(LAWS, Q_POINTS, RM_INDICES), _t28_eval(verbatim=True),
    ),
    IdentityCase(
        "T2.8", "verbatim-const",
        "m-fold series derivative shortcut on single-point laws",
        "pass", Drawer(CONSTANTS, Q_POINTS, RM_INDICES), _t28_eval(verbatim=True),
    ),
    IdentityCase(
        "T2.8", "corrected",
        "m-fold series derivative via the exact product rule",
        "pass", Drawer(LAWS, Q_POINTS, RM_INDICES), _t28_eval(verbatim=False),
    ),
    IdentityCase(
        "T3.1", "verbatim",
        "Poisson law: values reduce to Bell polynomial evaluations",
        "pass", Drawer(POISSON, Q_POINTS),
        _reduction_eval(lambda dist, k, p: bell_poly(k, dist.alpha * p.X1)),
    ),
    IdentityCase(
        "T3.2", "corrected",
        "Poisson law: partition-number expansion with the complement-bracket "
        "power restored",
        "pass", Drawer(POISSON, Q_POINTS),
        _reduction_eval(
            lambda dist, k, p: _stirling_sum(k, lambda m: dist.alpha**m * p.X1**m)
        ),
    ),
    IdentityCase(
        "C3.1", "verbatim",
        "Poisson law: fully expanded double sum in powers of t",
        "pass", Drawer(POISSON, Q_POINTS),
        _reduction_eval(
            lambda dist, k, p: sum(
                (-1) ** l * dist.alpha**m * stirling2(k, m) * math.comb(m, l)
                * p.t ** (-m) * p.X**l
                for m in range(k + 1)
                for l in range(m + 1)
            )
        ),
    ),
    IdentityCase(
        "C3.2", "verbatim",
        "Poisson law: bosonic integral versus the printed closed form",
        "record", Drawer(POISSON, Q_POINTS), eval_c32,
        notes="the printed prefactor and index token are evaluated literally, "
        "with the zero token read as the formal-log limit value",
    ),
    IdentityCase(
        "C3.3", "verbatim",
        "Poisson law: fermionic integral versus the printed closed form",
        "record", Drawer(POISSON, Q_POINTS), eval_c33,
    ),
    IdentityCase(
        "T3.3", "verbatim",
        "Bernoulli law: falling-factorial partition expansion",
        "pass", Drawer(BERNOULLI, Q_POINTS),
        _reduction_eval(
            lambda dist, k, p: _stirling_sum(
                k, lambda m: dist.p1**m * falling_factorial(p.X1, m)
            )
        ),
    ),
    IdentityCase(
        "T3.4", "corrected",
        "Binomial law: falling factorial taken at the trial count times the "
        "complement bracket",
        "pass", Drawer(BINOMIAL, Q_POINTS),
        _reduction_eval(
            lambda dist, k, p: _stirling_sum(
                k, lambda m: dist.p1**m * falling_factorial(dist.trials * p.X1, m)
            )
        ),
        notes="the printed argument reuses the series index where the trial "
        "count belongs",
    ),
    IdentityCase(
        "T3.5", "verbatim",
        "Geometric law: signed reduction to Frobenius-Euler values",
        "pass", Drawer(GEOMETRIC, Q_POINTS), eval_t35,
        notes="read with the failure probability as the deformation "
        "parameter, order the complement bracket, argument zero",
    ),
    IdentityCase(
        "T3.6", "verbatim",
        "Negative-binomial law: mixed classical-basis expansion (as printed)",
        "record", Drawer(NEGBINOMIAL, Q_POINTS), eval_t36_verbatim,
    ),
    IdentityCase(
        "T3.6", "corrected",
        "Negative-binomial law: exponential-shift expansion derived from the "
        "MGF factorization",
        "pass", Drawer(NEGBINOMIAL, Q_POINTS), _reduction_eval(_t36_tail),
    ),
    IdentityCase(
        "T3.7", "verbatim",
        "Uniform law: reduction to higher-order Bernoulli numbers",
        "pass", Drawer(UNIFORM01, Q_POINTS),
        _reduction_eval(lambda dist, k, p: higher_bernoulli(k, p.Xc - 1, F(0))),
    ),
    IdentityCase(
        "R2.1", "verbatim",
        "classical mode agrees with the plain-x construction",
        "pass", Drawer(LAWS, CLASSICAL_POINTS), eval_r21,
    ),
    IdentityCase(
        "R2.2", "verbatim",
        "classical mode at the unit law is the classical basis",
        "pass", Drawer(UNIT, CLASSICAL_POINTS), eval_r22,
    ),
]


# The largest index a case that draws a law can draw, and so the least order a
# run takes.  P-110 draws no law, and its m reads no series.
MAX_DRAWN_INDEX = max(
    value for case in REGISTRY if isinstance(case.draw, Drawer) and case.draw.law
    for indices in enumerate_indices(case.draw.indices) for value in indices.values()
)


# ---------------------------------------------------------------------------
# the runner

def run_case(case: IdentityCase, draw: CaseDraw, order: int) -> AuditRecord:
    """Evaluate both sides of one case on one draw, compare them and build the
    record.  Any exception but CaseSkip and MemoryError, raised by the
    evaluator or by comparing, showing or subtracting its sides, gives an
    ERROR record naming it, so the rest of the run goes on."""
    rho, c, d = _render_point(draw.point)
    head = (
        case.id, case.variant, draw.dist.name if draw.dist is not None else "-",
        _render_params(draw), rho, c, d, order,
    )
    try:
        lhs, rhs = case.evaluate(draw.dist, draw.point, order, **draw.indices)
        status = "PASS" if lhs == rhs else "FAIL"
        shown = render_value(lhs), render_value(rhs), render_value(_values_diff(lhs, rhs))
    except CaseSkip:
        return AuditRecord(*head, "SKIP", "-", "-", "-")
    except MemoryError:
        raise
    except Exception as exc:
        return AuditRecord(*head, "ERROR", "-", "-", f"{type(exc).__name__}: {exc}")
    return AuditRecord(*head, status, *shown)


def _render_params(draw: CaseDraw) -> str:
    parts = [draw.dist.param_string()] if draw.dist is not None else []
    parts += [f"{key}={draw.indices[key]}" for key in sorted(draw.indices)]
    return ";".join(part for part in parts if part) or "-"


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
    _count(trials)
    if _index(order) < MAX_DRAWN_INDEX:
        raise ValueError(f"order below the largest drawn index {MAX_DRAWN_INDEX}")
    report = AuditReport()
    for case in sorted(REGISTRY, key=lambda cs: (cs.id, cs.variant)):
        for trial in range(trials):
            rng = random.Random(f"{seed}:{case.id}:{case.variant}:{trial}")
            report.records.append(run_case(case, case.draw(rng), order))
    return report
