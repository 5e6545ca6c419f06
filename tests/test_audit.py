import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbernstein.audit import (
    MAX_DRAWN_INDEX,
    REGISTRY,
    AuditReport,
    CaseDraw,
    CaseSkip,
    IdentityCase,
    _alternating_stirling_sum,
    eval_t21,
    eval_t26_verbatim,
    run_all,
    run_case,
)
from qbernstein import distributions, padic, series
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
from qbernstein.families import bell_poly, prob_qbernstein, prob_stirling2
from qbernstein.qcalc import QPoint

POINT = QPoint(F(2, 3), 1, 2)

# SHA-256 of the audit JSONL at its defaults (5 trials, order 16).  The bytes
# are a contract: a change that alters them re-pins these and says why.
AUDIT_DIGESTS = {
    42: "06c7a7263de44d25d594f222b6ef5895a905dfbc66e6f6167f8eb55341e3cbf4",
    7: "e679d2169e9c409faa353e1bd70a4590fd018ec5c1fc44aec0639cecb9759010",
    99: "9a4728ab2ffa672cb287b33cf714ffb2a56c4c6fb4db9bd4edf4603330f4b42a",
}
# SHA-256 of the same runs' summary lines, which carry each case's expectation
# class and so decide the exit code of ``qbernstein audit``.
SUMMARY_DIGESTS = {
    42: "f00201dc4d32468fae23dcdbdc3031171cbad4043cae2af184649230d9b5d4d4",
    7: "cb13f8ad9bec7792bbea0dfac9c096376e3fd0b50e8255e8d99c1e3f800f5498",
    99: "b85515e35c9b8a88f88da9f91c74ea253bab043e67c46db98f50f420a2d6474f",
}
# SHA-256 of the heavy audit's JSONL and summary lines (seed 99, 20 trials,
# order 24): every case at a larger order than the defaults reach.
HEAVY_DIGESTS = (
    "e8398477197ea517a4254d41d018680995330c9ed29a6179aad6a0c912660c03",
    "67f012950e05f7b23adf38400258d95f8121b106a09e2ad3c6100482692c628e",
)
# SHA-256 of the JSONL and summary lines of an audit at order 48 (seed 42, 5
# trials), where P-LOG, T2.6 corrected and T2.8 run on long series.
DEEP_DIGESTS = (
    "f05d0ee0b1d0c721bb83d4620ce61bb09eab861481265c86c11344a21ee529e7",
    "f00201dc4d32468fae23dcdbdc3031171cbad4043cae2af184649230d9b5d4d4",
)


def test_registry_ids_and_variants_are_unique():
    keys = [(c.id, c.variant) for c in REGISTRY]
    assert len(keys) == len(set(keys))
    assert all(c.expected in ("pass", "record", "skip") for c in REGISTRY)


def test_self_referential_case_always_passes():
    case = IdentityCase(
        "SELF", "verbatim", "harness self-test: both sides share one evaluator",
        "pass", None,
        lambda dist, p, order: (
            prob_qbernstein(dist, 1, 3, p), prob_qbernstein(dist, 1, 3, p),
        ),
    )
    draw = CaseDraw(Poisson(F(1)), POINT, {})
    record = run_case(case, draw, 8)
    assert record.status == "PASS"
    assert record.lhs == record.rhs
    assert record.difference == "0"


def test_case_skip_becomes_a_skip_record():
    def evaluator(dist, p, order):
        raise CaseSkip("inadmissible draw")

    case = IdentityCase("SKIPPY", "verbatim", "always skips", "record", None, evaluator)
    record = run_case(case, CaseDraw(None, None, {}), 8)
    assert record.status == "SKIP"
    assert record.lhs == "-" and record.rhs == "-"


@pytest.mark.parametrize(
    "lhs, rhs, status, difference",
    [
        ((F(1), F(2)), F(1), "FAIL", "-"),
        ((F(1), F(2)), (F(1), F(2), F(3)), "FAIL", "-"),
        ((F(1), (F(2), F(3))), (F(1), (F(2), F(3))), "PASS", "(0 | (0 | 0))"),
    ],
    ids=["tuple-vs-scalar", "lengths-differ", "nested-equal"],
)
def test_sides_compare_as_whole_values(lhs, rhs, status, difference):
    case = IdentityCase(
        "SHAPE", "verbatim", "fixed sides", "record", None,
        lambda dist, p, order: (lhs, rhs),
    )
    record = run_case(case, CaseDraw(None, None, {}), 8)
    assert (record.status, record.difference) == (status, difference)


def _out_of_moments(dist, p, order):
    return CustomMoments((F(1), F(2))).mgf_series(order), F(0)


@pytest.mark.parametrize(
    "evaluate, difference",
    [
        (_out_of_moments, "ValueError: only 2 moments provided, order 8 requested"),
        (lambda dist, p, order: (F(1) / 0, F(0)), "ZeroDivisionError: Fraction(1, 0)"),
    ],
    ids=["value-error", "zero-division"],
)
def test_case_error_becomes_an_error_record(evaluate, difference):
    case = IdentityCase("ERRY", "verbatim", "always raises", "pass", None, evaluate)
    record = run_case(case, CaseDraw(None, None, {}), 8)
    assert record.status == "ERROR"
    assert record.lhs == "-" and record.rhs == "-"
    assert record.difference == difference


def test_one_failing_case_leaves_the_rest_of_the_run(monkeypatch, tmp_path, capsys):
    import qbernstein.audit as audit_mod
    from qbernstein import cli

    clean = run_all(3, 1, MAX_DRAWN_INDEX)
    failing = IdentityCase("ERRY", "verbatim", "always raises", "pass", None, _out_of_moments)
    monkeypatch.setattr(audit_mod, "REGISTRY", REGISTRY + [failing])
    report = run_all(3, 1, MAX_DRAWN_INDEX)
    errors = [r for r in report.records if r.status == "ERROR"]
    assert [(r.id, r.variant) for r in errors] == [("ERRY", "verbatim")]
    assert [r for r in report.records if r.status != "ERROR"] == clean.records
    assert report.expected_pass_failures() == errors
    assert [line for line in report.summary_lines() if "ERROR=" in line] == [
        "ERRY    verbatim        expected=pass    PASS=0 FAIL=0 SKIP=0 ERROR=1"
    ]

    out = tmp_path / "audit.jsonl"
    argv = ["audit", "--seed", "3", "--trials", "1", "--order", str(MAX_DRAWN_INDEX)]
    argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    assert "ERROR=1" in capsys.readouterr().out
    assert out.read_text() == report.to_jsonl()


def _registry_case(case_id, variant):
    (case,) = [c for c in REGISTRY if (c.id, c.variant) == (case_id, variant)]
    return case


def test_poisson_bell_case_at_fixed_inputs():
    case = _registry_case("T3.1", "verbatim")
    lhs, rhs = case.evaluate(Poisson(F(2, 3)), POINT, 12, r=1, n=4)
    assert lhs == rhs
    # and the reduction really is through Bell polynomial values
    assert rhs == 4 * POINT.X * bell_poly(3, F(2, 3) * POINT.X1)


def test_degree_recurrence_fails_for_a_genuinely_random_law():
    """The two-term recurrence needs the derivative of the MGF to be mean
    times MGF; for a Bernoulli law with p strictly inside (0,1) that step is
    wrong, and the sides differ once n exceeds r + 1.  (At n = r + 1 only the
    constant term of the log-derivative enters, so any law satisfies it.)"""
    lhs, rhs = eval_t26_verbatim(Bernoulli(F(1, 2)), POINT, 12, r=1, n=2)
    assert lhs == rhs
    lhs, rhs = eval_t26_verbatim(Bernoulli(F(1, 2)), POINT, 12, r=1, n=3)
    assert lhs != rhs
    # same shape of failure for an arbitrary moment sequence
    law = CustomMoments(tuple(F(1 + k * k) for k in range(13)))
    lhs, rhs = eval_t26_verbatim(law, POINT, 12, r=0, n=2)
    assert lhs != rhs


def test_degree_recurrence_holds_for_single_point_laws():
    for c in (F(1), F(2), F(1, 2)):
        lhs, rhs = eval_t26_verbatim(Constant(c), POINT, 12, r=1, n=3)
        assert lhs == rhs


def test_expansion_case_runs_on_every_law_kind(subtests=None):
    for law in (Poisson(F(1)), Bernoulli(F(1, 3)), Constant(F(2))):
        lhs, rhs = eval_t21(law, POINT, 12, r=1, n=3)
        assert lhs == rhs


def test_run_all_is_deterministic_and_sorted():
    first = run_all(seed=7, trials=2, order=10)
    second = run_all(seed=7, trials=2, order=10)
    assert first.to_jsonl() == second.to_jsonl()
    assert first.to_csv() == second.to_csv()
    keys = [(r.id, r.variant) for r in first.records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", sorted(AUDIT_DIGESTS))
def test_default_audit_jsonl_matches_its_pinned_digest(seed):
    report = run_all(seed=seed, trials=5, order=16)
    payload = report.to_jsonl().encode()
    assert hashlib.sha256(payload).hexdigest() == AUDIT_DIGESTS[seed]
    summary = "\n".join(report.summary_lines()).encode()
    assert hashlib.sha256(summary).hexdigest() == SUMMARY_DIGESTS[seed]


def test_heavy_audit_jsonl_matches_its_pinned_digest():
    report = run_all(seed=99, trials=20, order=24)
    payload = report.to_jsonl().encode()
    summary = "\n".join(report.summary_lines()).encode()
    assert (
        hashlib.sha256(payload).hexdigest(), hashlib.sha256(summary).hexdigest()
    ) == HEAVY_DIGESTS


def test_deep_audit_jsonl_matches_its_pinned_digest():
    report = run_all(seed=42, trials=5, order=48)
    payload = report.to_jsonl().encode()
    summary = "\n".join(report.summary_lines()).encode()
    assert (
        hashlib.sha256(payload).hexdigest(), hashlib.sha256(summary).hexdigest()
    ) == DEEP_DIGESTS


def test_run_all_expected_passes_hold_on_another_seed():
    report = run_all(seed=7, trials=2, order=10)
    assert report.expected_pass_failures() == []


def test_run_all_covers_the_whole_registry():
    report = run_all(seed=3, trials=1, order=9)
    seen = {(r.id, r.variant) for r in report.records}
    assert seen == {(c.id, c.variant) for c in REGISTRY}


def test_record_serialization_shapes():
    report = run_all(seed=5, trials=1, order=9)
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == len(report.records)
    expected_keys = [
        "id", "variant", "dist", "params", "rho", "c", "d",
        "order", "status", "lhs", "rhs",
    ]
    for line in lines:
        row = json.loads(line)
        assert list(row) == expected_keys
        assert row["status"] in ("PASS", "FAIL", "SKIP")
    csv_text = report.to_csv()
    assert csv_text.startswith(
        "id,variant,dist,params,rho,c,d,order,status,lhs,rhs,difference"
    )
    latex = report.to_latex()
    assert latex.startswith("\\begin{tabular}")
    assert latex.rstrip().endswith("\\end{tabular}")


def test_non_executable_entry_reports_skip():
    report = run_all(seed=5, trials=1, order=9)
    rows = [r for r in report.records if r.id == "T2.2" and r.variant == "verbatim"]
    assert rows and all(r.status == "SKIP" for r in rows)


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_all(seed=1, trials=0, order=9)


def test_order_must_cover_every_drawn_index():
    with pytest.raises(ValueError):
        run_all(seed=1, trials=1, order=MAX_DRAWN_INDEX - 1)
    report = run_all(seed=2, trials=2, order=MAX_DRAWN_INDEX)
    assert not report.expected_pass_failures()


def test_report_summary_mentions_every_case():
    report = run_all(seed=5, trials=1, order=9)
    lines = report.summary_lines()
    assert len(lines) == len(REGISTRY)
    assert all("expected=" in line for line in lines)


@pytest.mark.parametrize("corrected", [False, True], ids=["verbatim", "corrected"])
def test_alternating_stirling_sum_is_the_fraction_sum(corrected):
    """The integer dot product over the Bell row equals the sum of
    (-1)^l w_l S_Y(k, l + 1), one Fraction per term, with w_l = l! or 1."""
    laws = [
        Poisson(F(3, 2)), Bernoulli(F(1, 3)), Binomial(4, F(2, 5)), Geometric(F(3, 4)),
        NegBinomial(3, F(2, 3)), Uniform01(), Constant(F(0)),
        CustomMoments((F(1), *(F(k * k - 3, k + 2) for k in range(1, 17)))),
    ]
    for law in laws:
        for k in range(17):
            expected = sum(
                (-1) ** l * (math.factorial(l) if corrected else 1) * prob_stirling2(law, k, l + 1)
                for l in range(k)
            )
            assert _alternating_stirling_sum(law, k, corrected) == expected, (law, k)


def _ode_rule_one_short(cut):
    """The laws' ODE moment rule, N_k = Q0 N_j + Q1 sum over i <= j of
    C(j, i) N_i S^(j-i) - P1 sum over i < j of C(j, i) N_(i+1) S^(j-1-i) for
    j = k - 1, with the term i = j - 1 dropped from the sum that ``cut``
    ("Q1" or "P1") multiplies."""

    def rule(self, k, nums, order):
        q0, q1, p1, s = self._ode()
        j = k - 1
        low = sum(math.comb(j, i) * nums[i] * s ** (j - i)
                  for i in range(j + 1) if cut != "Q1" or i != j - 1)
        high = sum(math.comb(j, i) * nums[i + 1] * s ** (j - 1 - i)
                   for i in range(j) if cut != "P1" or i != j - 1)
        return q0 * nums[j] + q1 * low - p1 * high, s**k

    return rule


def _power_rule_off_by_one(self, order):
    """The table's Miller rule in exponential form with zd C(k, j) where
    Beta_k = sum over j of (zn C(k - 1, j - 1) - zd C(k - 1, j)) zd^(j-1)
    D_k/(D_j D_(k-j)) N_j Beta_(k-j) needs zd C(k - 1, j)."""
    nums, held, zn, zd = self._nums, self._zpow, self._z.numerator, self._z.denominator
    for k in range(len(held), order + 1):
        split = self._splits[k]
        held.append(sum(
            (zn * math.comb(k - 1, j - 1) - zd * math.comb(k, j)) * zd ** (j - 1)
            * split[j] * nums[j] * held[k - j]
            for j in range(1, k + 1)
        ))


def _bell_rule_off_by_one(self, n):
    """The table's partial Bell recurrence with C(k, i - 1) where
    A_m(k) = sum over i of C(k - 1, i - 1) D_k/(D_i D_(k-i)) N_i
    A_(m-1)(k - i) needs C(k - 1, i - 1)."""
    nums, rows = self._grown(n), self._rows
    for k in range(len(rows[0]), n + 1):
        split = self._splits[k]
        rows[0].append(0)
        rows.append([0] * k)
        for m in range(1, k + 1):
            rows[m].append(sum(
                math.comb(k, i - 1) * split[i] * nums[i] * rows[m - 1][k - i]
                for i in range(1, k - m + 2)
            ))


def _miller_sum_one_short(nums, den, z):
    """Series.pow's integer Miller kernel with the sum over j stopping at
    k - 1, where k b_k = sum over j = 1..k of ((z + 1) j - k) a_j b_(k-j)
    needs j = k."""
    zn, zd = z.numerator, z.denominator
    held, common = [1], 1
    for k in range(1, len(nums)):
        acc = sum(((zn + zd) * j - k * zd) * nums[j] * held[k - j] for j in range(1, k))
        common = series._extend(held, common, acc, k * zd * den)
    return series.Series.over(held, common)


_miller_power, _table_bell = series._miller_power, MgfTable.bell
_table_bell_parts = MgfTable.bell_parts
_series_mul = series.Series.__mul__


def _extend_leaving_b0(held, common, num, den):
    """series._extend scaling held[1:] when the common denominator grows by
    r, where every held numerator, b_0's too, must be scaled."""
    g = math.gcd(den, num)
    r = den // g
    held[1:] = [h * r for h in held[1:]]
    held.append(num // g)
    return common * r


def _miller_rescaled_one_short(nums, den, z):
    """Series.pow's Miller kernel, run with that append step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_extend", _extend_leaving_b0)
        return _miller_power(nums, den, z)


def _bell_read_one_short(self, n, m):
    """The table's Bell read-out B_(n,m) = A_m(n) / D_(n-1) where the rows,
    held over D_n, need A_m(n) / D_n."""
    value = _table_bell(self, n, m)
    return value * self._dens[n] / self._dens[n - 1] if 0 < m <= n else value


def _bell_parts_read_one_short(self, n):
    """MgfTable.bell_parts giving D_(n-1) where the row A_m(n) is held over
    D_n."""
    parts, den = _table_bell_parts(self, n)
    return parts, self._dens[n - 1] if n else den


def _series_mul_one_short(self, other):
    """Series.__mul__'s integer convolution with the index i stopping at
    k - 1 instead of k."""
    if not isinstance(other, series.Series):
        return _series_mul(self, other)
    a, b = self.nums, other.nums
    out = [sum(a[i] * b[k - i] for i in range(k)) for k in range(self.order + 1)]
    return series.Series.over(out, self.den * other.den)


def _series_log_one_short(self):
    """Series.log with the sum over 0 < i < k stopping at k - 2, where
    k l_k = k a_k - sum over 0 < i < k of i l_i a_(k-i) needs i = k - 1."""
    a, den = self.nums, self.den
    held, common = [0], 1
    for k in range(1, len(a)):
        acc = k * a[k] * common - sum(i * held[i] * a[k - i] for i in range(1, k - 1))
        common = series._extend(held, common, acc, k * den)
    return series.Series.over(held, common)


def _point_with_swapped_brackets(mp):
    built = QPoint.__init__

    def init(self, *args, **kwargs):
        built(self, *args, **kwargs)
        xc, x1 = self.Xc, self.X1
        object.__setattr__(self, "Xc", x1)
        object.__setattr__(self, "X1", xc)

    mp.setattr(QPoint, "__init__", init)


# Each key names the part of the engine its mutant breaks: "poisson-rule" and
# "negbinomial-rule" are the laws' ODE moment rule
# (Distribution._moment), set on those laws (and on Geometric,
# which shares NegBinomial's ODE) with its Q1 sum, or its P1 sum, one term
# short; Poisson's ODE has no P1 term and NegBinomial's no Q1 term, so each
# mutant reaches the one sum its law reads.  "extend-pow" is the table's
# Miller rule for M^z (MgfTable._grow_power), "minus-one-table" its
# partial Bell recurrence for (M - 1)^m (MgfTable._grow_rows), and
# "series-pow", "series-mul" and "series-log" the integer kernels of
# Series.pow (series._miller_power), Series.__mul__ and Series.log.  The two
# rescale mutants break the step that carries held integers to values:
# "minus-one-rescale" the table's Bell read-out A_m(n) / D_n, both as one
# value (MgfTable.bell) and as a row over its denominator
# (MgfTable.bell_parts, which P-LOG, T2.7, the Laurent route and the p-adic
# rows read), and "miller-rescale" the scaling of the held b_i when the
# power's common denominator grows (series._extend, as series._miller_power
# calls it).
# A table that holds index k over the law's d_k in place of D_k is checked
# by shuffled growth reads in tests/test_distributions.py.  One mutant is not
# listed, since it fails no expected-pass record of run_all(42, 2, 8): a
# one-short Series.exp, which only T3.1 reaches (through bell_poly) and at
# n - r = 0 in both its draws there, is checked against the Fraction
# reference in tests/test_series.py.
MUTANTS = {
    "poisson-rule": lambda mp: mp.setattr(Poisson, "_moment", _ode_rule_one_short("Q1")),
    "negbinomial-rule": lambda mp: (
        mp.setattr(NegBinomial, "_moment", _ode_rule_one_short("P1")),
        mp.setattr(Geometric, "_moment", _ode_rule_one_short("P1")),
    ),
    "extend-pow": lambda mp: mp.setattr(MgfTable, "_grow_power", _power_rule_off_by_one),
    "minus-one-table": lambda mp: mp.setattr(MgfTable, "_grow_rows", _bell_rule_off_by_one),
    "minus-one-rescale": lambda mp: (
        mp.setattr(MgfTable, "bell", _bell_read_one_short),
        mp.setattr(MgfTable, "bell_parts", _bell_parts_read_one_short),
    ),
    "miller-rescale": lambda mp: mp.setattr(series, "_miller_power", _miller_rescaled_one_short),
    "series-pow": lambda mp: mp.setattr(series, "_miller_power", _miller_sum_one_short),
    "series-mul": lambda mp: (
        mp.setattr(series.Series, "__mul__", _series_mul_one_short),
        mp.setattr(series.Series, "__rmul__", _series_mul_one_short),
    ),
    "series-log": lambda mp: mp.setattr(series.Series, "log", _series_log_one_short),
    "swapped-brackets": _point_with_swapped_brackets,
}


def _clear_caches():
    """Empty the shared tables; run_all draws new law objects, so no table
    held on a law object outlives the run that grew it."""
    distributions._shared_table.cache_clear()
    padic._rules.cache_clear()
    padic._rows.cache_clear()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_audit_catches_a_broken_engine(monkeypatch, mutant):
    """Each off-by-one mutant of the engine turns at least one expected-pass
    record into FAIL or ERROR; the caches are cleared around it so that no
    value computed by the mutant outlives it."""
    _clear_caches()
    assert run_all(42, 2, 8).expected_pass_failures() == []
    try:
        with monkeypatch.context() as mp:
            MUTANTS[mutant](mp)
            _clear_caches()
            failures = run_all(42, 2, 8).expected_pass_failures()
    finally:
        _clear_caches()
    assert any(r.status in ("FAIL", "ERROR") for r in failures)


# The expected-pass cases whose identity is claimed for every law with
# M(0) = 1, not for one law kind.
LAW_GENERIC = [
    ("P-LOG", "corrected"), ("T2.1", "verbatim"), ("T2.2", "corrected"),
    ("T2.3", "corrected"), ("T2.4", "verbatim"), ("T2.5", "verbatim"),
    ("T2.6", "corrected"), ("T2.7", "corrected"), ("T2.8", "corrected"),
    ("R2.1", "verbatim"),
]


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)), min_size=8, max_size=8),
    st.integers(0, 2**32),
)
@example([F(m) for m in (0, 2, -1, 3, 1, 5, 2, 7)], 0)
def test_law_generic_cases_hold_for_any_moment_sequence(moments, seed):
    """Each law-generic expected-pass case, on its own draw of point and
    indices, passes or skips on a law with arbitrary rational moments; a
    mean-zero law, where v/(M - 1) has no series, makes T2.1 (r > 0) and T2.5
    skip."""
    law = CustomMoments((F(1), *moments))
    cases = {(c.id, c.variant): c for c in REGISTRY}
    for key in LAW_GENERIC:
        case = cases[key]
        assert case.expected == "pass"
        draw = case.draw(random.Random(f"{seed}:{key}"))
        record = run_case(case, CaseDraw(law, draw.point, draw.indices), 8)
        assert record.status in ("PASS", "SKIP"), (key, record.difference)
        if key == ("T2.5", "verbatim"):
            assert (record.status == "SKIP") == (moments[0] == 0)
