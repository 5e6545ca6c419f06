import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbernstein.audit as audit_mod
from qbernstein.audit import (
    ALPHA_GRID,
    CLASSICAL_POINTS,
    LAWS,
    MAX_DRAWN_INDEX,
    POISSON,
    Q_POINTS,
    REGISTRY,
    RM_INDICES,
    RN_INDICES,
    UNIFORM01,
    UNIT,
    AuditReport,
    CaseDraw,
    CaseSkip,
    Drawer,
    IdentityCase,
    _alternating_stirling_parts,
    _latex_escape,
    enumerate_indices,
    eval_t21,
    eval_t26_verbatim,
    render_value,
    run_all,
    run_case,
)
from qbernstein import cli, distributions, padic, series
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
from qbernstein.rings import LogPoly

POINT = QPoint(F(2, 3), 1, 2)

def test_registry_ids_and_variants_are_unique():
    keys = [(c.id, c.variant) for c in REGISTRY]
    assert len(keys) == len(set(keys))
    assert all(c.expected in ("pass", "record", "skip") for c in REGISTRY)


def test_every_registry_entry_draws_and_evaluates():
    """A skip entry too is a drawer plus an evaluator (one that raises
    CaseSkip), so the runner takes one path for every record."""
    assert all(callable(c.draw) and callable(c.evaluate) for c in REGISTRY)


# Every index domain that is not the default one, n in 0..6 then r in 0..n.
OTHER_DOMAINS = {
    ("P-110", "verbatim"): (("m", 0, 8),),
    ("P-LOG", "verbatim"): (),
    ("P-LOG", "corrected"): (),
    ("T2.2", "verbatim"): (),
    ("T2.6", "verbatim"): (("n", 1, 6), ("r", 0, "n")),
    ("T2.6", "verbatim-const"): (("n", 1, 6), ("r", 0, "n")),
    ("T2.7", "verbatim"): (("n", 1, 5), ("r", 0, "n")),
    ("T2.7", "corrected"): (("n", 1, 5), ("r", 0, "n")),
    ("T2.8", "verbatim"): RM_INDICES,
    ("T2.8", "verbatim-const"): RM_INDICES,
    ("T2.8", "corrected"): RM_INDICES,
}


def test_each_entry_holds_its_index_domain_as_data():
    """Every entry but P-BRKT, which draws its point's own parameters, has a
    Drawer whose domain is a value; P-110's m and P-LOG and T2.2 verbatim's
    empty domain aside, each draws (r, n) or (r, m)."""
    domains = {(c.id, c.variant): c.draw.indices for c in REGISTRY if isinstance(c.draw, Drawer)}
    assert [c.id for c in REGISTRY if not isinstance(c.draw, Drawer)] == ["P-BRKT"]
    assert {key: d for key, d in domains.items() if d != RN_INDICES} == OTHER_DOMAINS
    assert RN_INDICES == (("n", 0, 6), ("r", 0, "n"))
    assert RM_INDICES == (("r", 0, 3), ("m", 1, 3))


def test_the_default_domain_enumerates_28_dicts():
    dicts = enumerate_indices(RN_INDICES)
    assert len(dicts) == 28
    assert dicts == [{"n": n, "r": r} for n in range(7) for r in range(n + 1)]
    assert enumerate_indices(()) == [{}]
    assert enumerate_indices(RM_INDICES) == [
        {"r": r, "m": m} for r in range(4) for m in range(1, 4)
    ]


def test_law_and_point_domains_enumerate_their_sizes():
    """Poisson 5, Bernoulli 5, Binomial 20, Geometric 5, NegBinomial 15 and
    Uniform01 1 laws; 10 values of rho times 6 (c, d) pairs; and the 6
    classical (c, d) pairs, of which 2/4 is held as 1/2."""
    laws = enumerate_indices(LAWS)
    assert len(laws) == 51 and len(set(laws)) == 51
    assert [sum(type(law) is kind for law in laws) for kind, _ in LAWS] == [5, 5, 20, 5, 15, 1]
    points = enumerate_indices(Q_POINTS)
    assert len(points) == 60 and len(set(points)) == 60
    assert {(p.c, p.d) for p in points} == {(c, d) for d in (2, 3, 4) for c in range(1, d)}
    classical = enumerate_indices(CLASSICAL_POINTS)
    assert len(classical) == 6 and all(p.is_classical for p in classical)
    assert sorted({p.x for p in classical}) == [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]
    # a classical point is one value however its (c, d) is written
    axes = enumerate_indices(CLASSICAL_POINTS[0][1])
    by_cd = {(a["c"], a["d"]): p for a, p in zip(axes, classical)}
    assert len(set(classical)) == 5 and by_cd[2, 4] == by_cd[1, 2] == QPoint.classical(F(1, 2))
    assert enumerate_indices(UNIT) == [Constant(F(1))]


def test_a_domain_of_one_kind_draws_no_kind():
    """A law domain of one kind spends no random call on picking it: Poisson
    spends one choice on alpha, and Uniform01 and the unit law none at all."""
    for domain, grids in ((POISSON, [ALPHA_GRID]), (UNIFORM01, []), (UNIT, [])):
        rng, twin = random.Random(5), random.Random(5)
        Drawer(domain, indices=())(rng)
        for grid in grids:
            twin.choice(grid)
        assert rng.getstate() == twin.getstate(), domain


def test_every_draw_lies_in_its_enumerated_domain():
    """Over 200 seeded draws each, every law, point and index dict a Drawer
    gives is one its domains enumerate; and 2,000 draws of the indices alone
    reach every index dict."""
    for case in REGISTRY:
        if not isinstance(case.draw, Drawer):
            continue
        key, domain = (case.id, case.variant), enumerate_indices(case.draw.indices)
        laws, points = (
            enumerate_indices(d) if d is not None else [None]
            for d in (case.draw.law, case.draw.point)
        )
        for i in range(200):
            draw = case.draw(random.Random(f"{key}:{i}"))
            assert draw.indices in domain and draw.dist in laws and draw.point in points, key
        rng, alone = random.Random(f"{key}"), Drawer(indices=case.draw.indices)
        drawn = [alone(rng).indices for _ in range(2000)]
        assert all(indices in drawn for indices in domain), key


def test_each_repair_holds_on_the_draws_of_its_printed_form():
    """Each record verbatim case with a corrected twin draws inside the twin's
    domains.  On the verbatim case's own draws (seeds 0-7, 5 trials, order
    16), the twin passes every one, and the printed form fails at least one:
    so the repair mends the draws the printed form fails on, and the record
    case is not mislabelled."""
    cases = {(c.id, c.variant): c for c in REGISTRY}
    pairs = [
        (case, cases[case.id, "corrected"]) for case in REGISTRY
        if case.variant == "verbatim" and case.expected == "record"
        and (case.id, "corrected") in cases
    ]
    assert [case.id for case, _ in pairs] == ["P-LOG", "T2.6", "T2.7", "T2.8", "T3.6"]
    for verbatim, twin in pairs:
        for mine, theirs in zip(verbatim.draw, twin.draw):
            if mine is not None:
                domain = enumerate_indices(theirs)
                assert all(v in domain for v in enumerate_indices(mine)), verbatim.id
        draws = [
            verbatim.draw(random.Random(f"{seed}:{verbatim.id}:verbatim:{trial}"))
            for seed in range(8) for trial in range(5)
        ]
        assert all(run_case(twin, draw, 16).status == "PASS" for draw in draws), twin.id
        assert any(run_case(verbatim, draw, 16).status == "FAIL" for draw in draws), verbatim.id


# The first draw on which each record verbatim case fails, walking the product
# of its Drawer's law, point and index domains in that order at order 16, and
# the SHA-256 of the two sides it renders there, lhs and rhs joined by "\n".
AT_HALF = QPoint(F(1, 2), 1, 2)  # the first point of Q_POINTS
SMALLEST_FAILURES = {
    "P-LOG": (Poisson(F(2, 3)), None, {},
              "3bfc184ad6150ff5c34f85d7a0fe397167925ad79fdef9fa7030a2f5f279c8af"),
    "C2.1": (Poisson(F(2, 3)), AT_HALF, {"n": 2, "r": 1},
             "f8f31d1d854f98d14713c88225e656ef99fc009eb6fe52f721c154304d000bf8"),
    "T2.6": (Poisson(F(2, 3)), AT_HALF, {"n": 2, "r": 0},
             "65e0894379fa59e23f66f633b282531fae472d7578de6e2b1ee72904f197324d"),
    "T2.7": (Poisson(F(2, 3)), AT_HALF, {"n": 3, "r": 0},
             "6c97ddeb7e37496c815ba86661356d58d7473ba47bba034beec7ba7ced4a678a"),
    "T2.8": (Poisson(F(2, 3)), AT_HALF, {"r": 0, "m": 1},
             "e09a6e571207505d08238b5148e4a9cac812d58d56bd909bbed3d458618e9767"),
    "C3.2": (Poisson(F(2, 3)), AT_HALF, {"n": 1, "r": 0},
             "2ddc01d7b238a0784115f74ecf4811e335ed306e886dc4a89e5f70adfb079f67"),
    "C3.3": (Poisson(F(2, 3)), AT_HALF, {"n": 1, "r": 0},
             "1444418310b7781b1bea3967c968dbd31ebf1d0b1454c2606796c3e0ec334cb9"),
    "T3.6": (NegBinomial(1, F(1, 2)), AT_HALF, {"n": 1, "r": 0},
             "e1be036a6b228d603eec549ad7dda7caae6dfd43f5ec87facf847d49cabba917"),
}


def test_each_printed_form_fails_first_on_its_pinned_draw():
    """Walking each record verbatim case's whole domain in its canonical
    order, every draw before the pinned one passes and the pinned one fails,
    with the pinned sides; a corrected twin passes on that draw.  So each
    erratum has a smallest counterexample a reader can check by hand."""
    cases = {(c.id, c.variant): c for c in REGISTRY}
    printed = [c for c in REGISTRY if c.variant == "verbatim" and c.expected == "record"]
    assert sorted(c.id for c in printed) == sorted(SMALLEST_FAILURES)
    for case in printed:
        domains = [enumerate_indices(d) if d is not None else [None] for d in case.draw]
        for draw in itertools.product(*domains):
            record = run_case(case, CaseDraw(*draw), 16)
            if record.status != "PASS":
                break
        *pinned, digest = SMALLEST_FAILURES[case.id]
        assert (record.status, draw) == ("FAIL", tuple(pinned)), case.id
        sides = f"{record.lhs}\n{record.rhs}".encode()
        assert hashlib.sha256(sides).hexdigest() == digest, case.id
        if (case.id, "corrected") in cases:
            assert run_case(cases[case.id, "corrected"], CaseDraw(*draw), 16).status == "PASS"


def test_the_order_floor_is_read_from_the_domains():
    """The least order a run takes is the largest index a case that draws a
    law can draw: n = 6; P-110's m reaches 8 but reads no series."""
    drawn = {
        (c.id, c.variant): max(v for d in enumerate_indices(c.draw.indices) for v in d.values())
        for c in REGISTRY if isinstance(c.draw, Drawer) and c.draw.indices
    }
    assert drawn.pop(("P-110", "verbatim")) == 8
    assert MAX_DRAWN_INDEX == max(drawn.values()) == 6


def test_latex_escape_escapes_each_special_character():
    escaped = r"a\&b\%c\$d\#e\_f\{g\}h\^{}i\textbackslash{}j"
    assert _latex_escape("a&b%c$d#e_f{g}h^i\\j") == escaped


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
        (lambda dist, p, order: (F(1) + "1", F(0)),
         "TypeError: unsupported operand type(s) for +: 'Fraction' and 'str'"),
        (lambda dist, p, order: ((F(1),)[1], F(0)), "IndexError: tuple index out of range"),
        (lambda dist, p, order: ({}["r"], F(0)), "KeyError: 'r'"),
        (lambda dist, p, order: (series.Series([1, 2]), series.Series([1, 2, 3])),
         "ValueError: series order mismatch: 1 vs 2"),
        (lambda dist, p, order: (LogPoly({1: 1}), series.Series([1])),
         "TypeError: expected an exact scalar (Fraction or int), got LogPoly"),
    ],
    ids=["value-error", "zero-division", "type-error", "index-error", "key-error",
         "series-orders", "logpoly-series"],
)
def test_case_error_becomes_an_error_record(evaluate, difference):
    case = IdentityCase("ERRY", "verbatim", "always raises", "pass", None, evaluate)
    record = run_case(case, CaseDraw(None, None, {}), 8)
    assert record.status == "ERROR"
    assert record.lhs == "-" and record.rhs == "-"
    assert record.difference == difference


def test_a_memory_error_propagates():
    def evaluate(dist, p, order):
        raise MemoryError

    case = IdentityCase("OOM", "verbatim", "always out of memory", "pass", None, evaluate)
    with pytest.raises(MemoryError):
        run_case(case, CaseDraw(None, None, {}), 8)


def test_one_failing_case_leaves_the_rest_of_the_run(monkeypatch, tmp_path, capsys):
    clean = run_all(3, 1, MAX_DRAWN_INDEX)
    failing = IdentityCase(
        "ERRY", "verbatim", "always raises", "pass", lambda rng: CaseDraw(None, None, {}),
        _out_of_moments,
    )
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


def _adds_a_string(dist, p, order):
    return F(1) + "1", F(0)


def test_a_type_error_leaves_the_rest_of_the_run(monkeypatch, tmp_path, capsys):
    """An evaluator that raises an exception no precondition names, here a
    TypeError, gives one ERROR record, and the run and its report go on."""
    clean = run_all(3, 1, MAX_DRAWN_INDEX)
    failing = IdentityCase(
        "ERRY", "verbatim", "adds a string", "pass", Drawer(indices=()), _adds_a_string
    )
    monkeypatch.setattr(audit_mod, "REGISTRY", REGISTRY + [failing])
    report = run_all(3, 1, MAX_DRAWN_INDEX)
    (error,) = [r for r in report.records if r.id == "ERRY"]
    assert (error.status, error.lhs, error.rhs, error.difference) == (
        "ERROR", "-", "-", "TypeError: unsupported operand type(s) for +: 'Fraction' and 'str'"
    )
    assert [r for r in report.records if r.id != "ERRY"] == clean.records

    out = tmp_path / "audit.jsonl"
    argv = ["audit", "--seed", "3", "--trials", "1", "--order", str(MAX_DRAWN_INDEX)]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: 1 expected-pass record(s) failed\n"
    assert out.read_text() == report.to_jsonl()


# The cases whose sides are series, so that their records change with the
# order: each side at a higher order truncates to the side at a lower one.
SERIES_VALUED = {
    ("P-LOG", "verbatim"), ("P-LOG", "corrected"), ("T2.6", "corrected"),
    ("T2.8", "verbatim"), ("T2.8", "verbatim-const"), ("T2.8", "corrected"),
}


def test_a_lower_order_audit_is_a_prefix_of_a_higher_one():
    """run_all at orders 16 and 24 gives equal records but for ``order``,
    except the 12 series-valued ones; for those, each side at order 24,
    truncated to the order of that side at 16, equals it.  The draws are
    run_all's, from the (seed, id, variant, trial) stream it documents."""
    low, high = run_all(42, 2, 16), run_all(42, 2, 24)
    records = iter(zip(low.records, high.records, strict=True))
    differing = []
    for case in sorted(REGISTRY, key=lambda c: (c.id, c.variant)):
        for trial in range(2):
            at16, at24 = next(records)
            if at16._replace(order=24) == at24:
                continue
            differing.append((case.id, case.variant))
            draw = case.draw(random.Random(f"42:{case.id}:{case.variant}:{trial}"))
            sides16 = case.evaluate(draw.dist, draw.point, 16, **draw.indices)
            sides24 = case.evaluate(draw.dist, draw.point, 24, **draw.indices)
            assert tuple(map(render_value, sides16)) == (at16.lhs, at16.rhs)
            assert [s24.truncate(s16.order) for s16, s24 in zip(sides16, sides24)] == list(sides16)
    assert len(differing) == 12 and set(differing) == SERIES_VALUED


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


def test_order_must_cover_every_drawn_index():
    report = run_all(seed=2, trials=2, order=MAX_DRAWN_INDEX)
    assert not report.expected_pass_failures()


def test_report_summary_mentions_every_case():
    report = run_all(seed=5, trials=1, order=9)
    lines = report.summary_lines()
    assert len(lines) == len(REGISTRY)
    assert all("expected=" in line for line in lines)


@pytest.mark.parametrize("corrected", [False, True], ids=["verbatim", "corrected"])
def test_alternating_stirling_sum_is_the_fraction_sum(corrected):
    """The integer dot product over the Bell row, over its D_k, equals the
    sum of (-1)^l w_l S_Y(k, l + 1), one Fraction per term, with w_l = l! or
    1."""
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
            total, den = _alternating_stirling_parts(law, k, corrected)
            assert F(total, den) == expected, (law, k)


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
    """The table's partial Bell recurrence with C(k, i - 1) where row k =
    sum over i of C(k - 1, i - 1) D_k/(D_i D_(k-i)) N_i times row k - i
    shifted up one place needs C(k - 1, i - 1)."""
    nums, rows = self._grown(n), self._rows
    for k in range(len(rows), n + 1):
        split, row = self._splits[k], [0] * (k + 1)
        for i in range(1, k + 1):
            for m, a in enumerate(rows[k - i], 1):
                row[m] += math.comb(k, i - 1) * split[i] * nums[i] * a
        rows.append(tuple(row))


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


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _bell_parts_times_a_prime(self, n):
    """MgfTable.bell_parts with row n and D_n both times the n-th prime: the
    same values, over denominators that no longer divide one another."""
    parts, den = _table_bell_parts(self, n)
    return tuple(a * PRIMES[n] for a in parts), den * PRIMES[n]


@pytest.mark.parametrize(
    "law", [Poisson(F(3, 2)), Uniform01(), Geometric(F(3, 4))],
    ids=["poisson", "uniform01", "geometric"],
)
def test_p_log_reads_only_the_parts_the_table_documents(monkeypatch, law):
    """P-LOG corrected holds for any (row, D_n) pair that gives the row's
    values, not only for the table's D_n, each of which divides the next."""
    (case,) = [c for c in REGISTRY if (c.id, c.variant) == ("P-LOG", "corrected")]
    monkeypatch.setattr(MgfTable, "bell_parts", _bell_parts_times_a_prime)
    lhs, rhs = case.evaluate(law, None, 12)
    assert lhs == rhs


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


@pytest.mark.parametrize("arrangement", ["reversed", "shuffled"])
def test_records_depend_on_neither_registry_order_nor_cache_state(monkeypatch, arrangement):
    """Each case run alone from cleared caches, in reversed registry order or
    in a seeded shuffle, gives the records of one run_all over them all."""
    _clear_caches()
    expected = run_all(42, 2, 16).records
    if arrangement == "reversed":
        cases = REGISTRY[::-1]
    else:
        cases = random.Random(31).sample(REGISTRY, len(REGISTRY))
    records = []
    try:
        for case in cases:
            _clear_caches()
            monkeypatch.setattr(audit_mod, "REGISTRY", [case])
            records += run_all(42, 2, 16).records
    finally:
        _clear_caches()
    assert sorted(records, key=lambda r: (r.id, r.variant)) == expected


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


# A moment-grid certificate at N = 5.  Each side of each case below is a
# polynomial in mu_1 .. mu_5 whose coefficients are isobaric, mu_i of weight i;
# each case's weight bound is given with it.  So its degree in mu_i is at most
# floor(5/i).  A polynomial of degree at most t_i in x_i that vanishes on a
# grid S_1 x .. x S_5 with |S_i| > t_i is zero (Alon, "Combinatorial
# Nullstellensatz", 1999, Lemma 2.1).  So equality on the 6 x 3 x 2 x 2 x 2
# grid of mu_i = (x + 1)/(i + 2), x = 0 .. floor(5/i), proves each identity at
# those indices for every law.
# - P-LOG corrected, order 5: [log M]_k for k <= 5 has weight k <= 5.
# - T2.2 and T2.7 corrected, (r, n) = (1, 5): each term is a P(r, j), of
#   weight j - r, times a Bell sum or [log M]_(n - j) of weight n - j, so
#   weight at most n - r = 4 (the derivative in x adds no moment).
# - T2.3 corrected, (r, n) = (1, 5): it divides by E[Y^(n - r)], which is
#   nonzero on the grid; times that moment, the lhs X^r E[Y^(n - r)] and each
#   rhs term S_Y(n - l, m) P(r, l) have weight n - r = 4.
# - T2.4 verbatim, (r, n) = (1, 5): P(r, j), of weight j - r, times the
#   coefficient n - j of 2/(M + 1) M^Xc, of weight n - j: weight n - r = 4.
# - T2.6 corrected, r = 2, order 5: coefficient k of (X v)^r / r! M^X1 has
#   weight k - r, and coefficient k of M'/M weight k + 1, so coefficient k of
#   either side, k <= 4, has weight k + 1 - r <= 3.
# - T2.8 corrected, (r, m) = (2, 2), order 5: coefficient k <= 3 of either
#   side is a multiple of coefficient k + m of (X v)^r / r! M^X1, or a sum of
#   terms of that weight, k + m - r <= 3.
GRID_N = 5
GRID_MOMENTS = list(itertools.product(*(
    [F(x + 1, i + 2) for x in range(GRID_N // i + 1)] for i in range(1, GRID_N + 1)
)))
GRID_POINT = QPoint(F(2, 5), 3, 7)
GRID_CASES = {
    ("P-LOG", "corrected"): {},
    ("T2.2", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.7", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.3", "corrected"): {"r": 1, "n": GRID_N},
    ("T2.4", "verbatim"): {"r": 1, "n": GRID_N},
    ("T2.6", "corrected"): {"r": 2, "n": GRID_N},
    ("T2.8", "corrected"): {"r": 2, "m": 2},
}


def _grid_failures() -> list:
    """The (case, law) pairs of the grid whose two sides differ, on new law
    objects, so that no table held on an earlier law is read."""
    cases = {(c.id, c.variant): c for c in REGISTRY}
    failures = []
    for mus in GRID_MOMENTS:
        law = CustomMoments((F(1), *mus))
        for key, indices in GRID_CASES.items():
            lhs, rhs = cases[key].evaluate(law, GRID_POINT, GRID_N, **indices)
            if lhs != rhs:
                failures.append((key, law))
    return failures


def test_every_grid_case_lies_in_its_domain():
    cases = {(c.id, c.variant): c for c in REGISTRY}
    for key, indices in GRID_CASES.items():
        assert indices in enumerate_indices(cases[key].draw.indices), key


def test_bell_readers_hold_on_the_moment_grid():
    """P-LOG, T2.2, T2.3, T2.6, T2.7 and T2.8 corrected and T2.4 verbatim
    hold on all 144 grid laws, and so, by the certificate above, on every
    law at their indices."""
    assert len(GRID_MOMENTS) == 144
    _clear_caches()
    assert _grid_failures() == []


# the mutants whose targets the grid cases read: the table's Bell recurrence
# and read-out, its M^z rule (T2.2's lhs reads M^X1), Series.log (P-LOG's),
# Series.pow and its rescale (T2.4's M^Xc and T2.8's M^X1), and
# Series.__mul__ (T2.4's and T2.6's products)
@pytest.mark.parametrize("mutant", [
    "extend-pow", "minus-one-rescale", "minus-one-table", "series-log",
    "miller-rescale", "series-pow", "series-mul",
])
def test_moment_grid_catches_a_broken_engine(monkeypatch, mutant):
    _clear_caches()
    try:
        with monkeypatch.context() as mp:
            MUTANTS[mutant](mp)
            failures = _grid_failures()
    finally:
        _clear_caches()
    assert failures
