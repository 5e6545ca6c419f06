"""Output checks of the three workloads, each by a route independent of the
one the workload timed.  Every check returns (attempted, failed, notes).

  audit    every record of an expected-pass registry entry is PASS, and the
           report has one record per entry and trial.
  table    Poisson rows equal C(n,r) X^r Bell_{n-r}(alpha X1), the Touchard
           route, with Bell polynomials from sympy; every r = n row equals X^n
           for every law; every (n, r) of the grid is present once.
  laurent  each integrand, substituted at the coherent point with the same q,
           equals the scalar prob_qbernstein; each fermionic value is log-free.

The oracles are parameters so the self-test can hand in a wrong one and see
it counted as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import build_law, point_q


def brackets(point: dict) -> tuple[Fraction, Fraction, Fraction]:
    """(t, X, X1) at the point, from the defining quotients
    X = (q^x - 1)/(q - 1) and X1 = (q^(1-x) - 1)/(q - 1)."""
    rho = Fraction(point["rho"])
    q, t = rho ** point["d"], rho ** point["c"]
    return t, (t - 1) / (q - 1), (q / t - 1) / (q - 1)


@lru_cache(maxsize=None)
def _sympy_bell(k: int, z: Fraction) -> Fraction:
    import sympy

    value = sympy.bell(k, sympy.Rational(z.numerator, z.denominator))
    return Fraction(int(value.p), int(value.q))


def sympy_touchard(n: int, r: int, x: Fraction, alpha_x1: Fraction) -> Fraction:
    return math.comb(n, r) * x**r * _sympy_bell(n - r, alpha_x1)


def check_audit(inputs: dict, files: list[Path]) -> tuple[int, int, list[str]]:
    from qbernstein.audit import REGISTRY

    expected = {(c.id, c.variant): c.expected for c in REGISTRY}
    records = [json.loads(line) for line in files[0].read_text().splitlines()]
    attempted, failed, notes = 1, 0, []
    if len(records) != len(REGISTRY) * inputs["trials"]:
        failed += 1
        notes.append(f"audit: {len(records)} records, expected {len(REGISTRY) * inputs['trials']}")
    for rec in records:
        if expected.get((rec["id"], rec["variant"])) != "pass":
            continue
        attempted += 1
        if rec["status"] != "PASS":
            failed += 1
            notes.append(f"audit: {rec['id']} {rec['variant']} is {rec['status']}")
    return attempted, failed, notes


def check_table(
    inputs: dict, files: list[Path], touchard=sympy_touchard
) -> tuple[int, int, list[str]]:
    _, x, x1 = brackets(inputs["point"])
    grid = {(n, r) for n in range(inputs["n"] + 1) for r in range(n + 1)}
    attempted = failed = 0
    notes = []
    for law, path in zip(inputs["laws"], files):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = {(int(n), int(r)): Fraction(v) for n, r, v in rows}
        attempted += 1
        if len(values) != len(rows) or set(values) != grid:
            failed += 1
            notes.append(f"table {law['dist']}: rows do not cover 0 <= r <= n <= {inputs['n']} once")
        for (n, r), value in sorted(values.items()):
            if r == n:
                attempted += 1
                if value != x**n:
                    failed += 1
                    notes.append(f"table {law['dist']}: r = n = {n} is not X^n")
            if law["dist"] == "poisson":
                attempted += 1
                if value != touchard(n, r, x, Fraction(law["alpha"]) * x1):
                    failed += 1
                    notes.append(f"table poisson: (n, r) = ({n}, {r}) differs from Touchard")
    return attempted, failed, notes


def package_scalar(dist, r: int, n: int, point: dict) -> Fraction:
    from qbernstein import QPoint, prob_qbernstein

    return prob_qbernstein(dist, r, n, QPoint(Fraction(point["rho"]), point["c"], point["d"]))


def check_laurent(
    inputs: dict, files: list[Path], scalar=package_scalar
) -> tuple[int, int, list[str]]:
    from qbernstein import prob_qbernstein_laurent

    point = inputs["point"]
    q = point_q(point)
    t = brackets(point)[0]
    lines = files[0].read_text().splitlines()
    attempted, failed, notes = 1, 0, []
    expected_lines = len(inputs["laws"]) * (inputs["n"] + 1) * (inputs["n"] + 2) // 2
    if len(lines) != expected_lines:
        failed += 1
        notes.append(f"laurent: {len(lines)} values, expected {expected_lines}")
    for line in lines:
        attempted += 1
        if "*L^" in line.split(" | ", 1)[1]:
            failed += 1
            notes.append(f"laurent: fermionic value is not log-free: {line[:60]}")
    for law in inputs["laws"]:
        dist = build_law(law)
        for n in range(inputs["n"] + 1):
            for r in range(n + 1):
                attempted += 1
                integrand = prob_qbernstein_laurent(dist, r, n, q)
                if integrand.substitute(t) != scalar(dist, r, n, point):
                    failed += 1
                    notes.append(f"laurent {law['dist']}: (n, r) = ({n}, {r}) differs from the scalar")
    return attempted, failed, notes


CHECKS = {"audit": check_audit, "table": check_table, "laurent": check_laurent}
