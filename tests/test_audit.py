import hashlib
import json
from fractions import Fraction as F

import pytest

from qbernstein.audit import (
    MAX_DRAWN_INDEX,
    REGISTRY,
    AuditReport,
    CaseDraw,
    CaseSkip,
    IdentityCase,
    eval_t21,
    eval_t26_verbatim,
    eval_t31,
    run_all,
    run_case,
)
from qbernstein.distributions import Bernoulli, Constant, CustomMoments, Poisson
from qbernstein.families import bell_poly, prob_qbernstein
from qbernstein.qcalc import QPoint, bracket, bracket_conjugates

POINT = QPoint(F(2, 3), 1, 2)

# SHA-256 of the audit JSONL at its defaults (5 trials, order 16).  The bytes
# are a contract: a change that alters them re-pins these and says why.
AUDIT_DIGESTS = {
    42: "06c7a7263de44d25d594f222b6ef5895a905dfbc66e6f6167f8eb55341e3cbf4",
    7: "e679d2169e9c409faa353e1bd70a4590fd018ec5c1fc44aec0639cecb9759010",
}


def test_registry_ids_and_variants_are_unique():
    keys = [(c.id, c.variant) for c in REGISTRY]
    assert len(keys) == len(set(keys))
    assert all(c.expected in ("pass", "record", "skip") for c in REGISTRY)


def test_self_referential_case_always_passes():
    case = IdentityCase(
        "SELF", "verbatim", "harness self-test: both sides share one evaluator",
        "pass", None,
        lambda draw, order: (
            prob_qbernstein(draw.dist, 1, 3, draw.point),
            prob_qbernstein(draw.dist, 1, 3, draw.point),
        ),
    )
    draw = CaseDraw(Poisson(F(1)), POINT, {})
    record = run_case(case, draw, 8)
    assert record.status == "PASS"
    assert record.lhs == record.rhs
    assert record.difference == "0"


def test_case_skip_becomes_a_skip_record():
    def evaluator(draw, order):
        raise CaseSkip("inadmissible draw")

    case = IdentityCase("SKIPPY", "verbatim", "always skips", "record", None, evaluator)
    record = run_case(case, CaseDraw(None, None, {}), 8)
    assert record.status == "SKIP"
    assert record.lhs == "-" and record.rhs == "-"


def _out_of_moments(draw, order):
    return CustomMoments((F(1), F(2))).mgf_series(order), F(0)


@pytest.mark.parametrize(
    "evaluate, difference",
    [
        (_out_of_moments, "ValueError: only 2 moments provided, order 8 requested"),
        (lambda draw, order: (F(1) / 0, F(0)), "ZeroDivisionError: Fraction(1, 0)"),
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


def test_poisson_bell_case_at_fixed_inputs():
    draw = CaseDraw(Poisson(F(2, 3)), POINT, {"r": 1, "n": 4})
    lhs, rhs = eval_t31(draw, 12)
    assert lhs == rhs
    # and the reduction really is through Bell polynomial values
    one_minus = bracket_conjugates(POINT)[1]
    assert rhs == 4 * bracket(POINT) * bell_poly(3, F(2, 3) * one_minus)


def test_degree_recurrence_fails_for_a_genuinely_random_law():
    """The two-term recurrence needs the derivative of the MGF to be mean
    times MGF; for a Bernoulli law with p strictly inside (0,1) that step is
    wrong, and the sides differ once n exceeds r + 1.  (At n = r + 1 only the
    constant term of the log-derivative enters, so any law satisfies it.)"""
    draw = CaseDraw(Bernoulli(F(1, 2)), POINT, {"r": 1, "n": 2})
    lhs, rhs = eval_t26_verbatim(draw, 12)
    assert lhs == rhs
    draw = CaseDraw(Bernoulli(F(1, 2)), POINT, {"r": 1, "n": 3})
    lhs, rhs = eval_t26_verbatim(draw, 12)
    assert lhs != rhs
    # same shape of failure for an arbitrary moment sequence
    law = CustomMoments(tuple(F(1 + k * k) for k in range(13)))
    draw = CaseDraw(law, POINT, {"r": 0, "n": 2})
    lhs, rhs = eval_t26_verbatim(draw, 12)
    assert lhs != rhs


def test_degree_recurrence_holds_for_single_point_laws():
    for c in (F(1), F(2), F(1, 2)):
        draw = CaseDraw(Constant(c), POINT, {"r": 1, "n": 3})
        lhs, rhs = eval_t26_verbatim(draw, 12)
        assert lhs == rhs


def test_expansion_case_runs_on_every_law_kind(subtests=None):
    for law in (Poisson(F(1)), Bernoulli(F(1, 3)), Constant(F(2))):
        draw = CaseDraw(law, POINT, {"r": 1, "n": 3})
        lhs, rhs = eval_t21(draw, 12)
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
    payload = run_all(seed=seed, trials=5, order=16).to_jsonl().encode()
    assert hashlib.sha256(payload).hexdigest() == AUDIT_DIGESTS[seed]


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
