"""Inputs and runners of the three benchmark workloads.

Inputs are plain JSON-able dicts generated here from the benchmark seed; the
child process that runs a workload receives only those dicts, never the seed.

  audit    ``qbernstein audit`` at its defaults (5 trials, order 16), the
           command users run to check the paper.  Dominated by
           ``prob_stirling2`` and scalar ``Series.__mul__``; laws and points
           are drawn by the audit itself, so caches are reused little.
  table    ``qbernstein table`` for each of the six laws the audit draws, at
           one q-point, over 0 <= r <= n <= 32.  The scalar ``Series.pow``
           route with heavy reuse (every r at a given n shares M^X1); calls
           no ``prob_stirling2`` and no ``padic``.
  laurent  ``integrate_corollaries`` for the six laws at one q, over
           0 <= r <= n <= 16.  ``Poly``/``Laurent``/``LogPoly`` arithmetic and
           ``padic`` dominate; the scalar kernels do little.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("audit", "table", "laurent")

# The grids the audit draws its laws and points from, repeated here so the
# benchmark generates its inputs without reading the program under test.
RHO_GRID = ["1/2", "2/3", "3/4", "2/5", "3/5", "4/3", "3/2", "5/4", "7/5", "9/5"]
ALPHA_GRID = ["2/3", "1", "3/2", "1/3", "2"]
P1_GRID = ["1/2", "1/3", "2/3", "3/4", "1/4"]
TRIALS_GRID = [1, 2, 3, 4]
SUCCESSES_GRID = [1, 2, 3]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    audit_trials: int = 5
    audit_order: int = 16
    table_n: int = 32
    laurent_n: int = 16


FULL = Sizes()
TINY = Sizes(audit_trials=1, audit_order=8, table_n=4, laurent_n=4)


def draw_laws(rng: random.Random) -> list[dict]:
    """One law of each of the six kinds the audit draws, with seeded
    parameters, in CLI-flag form."""
    return [
        {"dist": "poisson", "alpha": rng.choice(ALPHA_GRID)},
        {"dist": "bernoulli", "p1": rng.choice(P1_GRID)},
        {"dist": "binomial", "nbar": rng.choice(TRIALS_GRID), "p1": rng.choice(P1_GRID)},
        {"dist": "geometric", "p1": rng.choice(P1_GRID)},
        {"dist": "negbinomial", "a": rng.choice(SUCCESSES_GRID), "p1": rng.choice(P1_GRID)},
        {"dist": "uniform01"},
    ]


def draw_point(rng: random.Random) -> dict:
    """A coherent point q = rho**d, t = rho**c with 0 < c < d."""
    d = rng.choice([2, 3, 4])
    return {"rho": rng.choice(RHO_GRID), "c": rng.randrange(1, d), "d": d}


def make_inputs(workload: str, seed: int, index: int, sizes: Sizes = FULL) -> dict:
    """The inputs of instance ``index`` of a run with benchmark seed ``seed``."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    if workload == "audit":
        return {
            "seed": rng.randrange(10**9),
            "trials": sizes.audit_trials,
            "order": sizes.audit_order,
        }
    if workload == "table":
        return {"laws": draw_laws(rng), "point": draw_point(rng), "n": sizes.table_n}
    if workload == "laurent":
        return {"laws": draw_laws(rng), "point": draw_point(rng), "n": sizes.laurent_n}
    raise ValueError(f"unknown workload {workload!r}")


def law_flags(law: dict) -> list[str]:
    flags = []
    for key, value in law.items():
        flags += [f"--{key}", str(value)]
    return flags


def build_law(law: dict):
    from qbernstein import distributions as dists

    kind = law["dist"]
    if kind == "poisson":
        return dists.Poisson(Fraction(law["alpha"]))
    if kind == "bernoulli":
        return dists.Bernoulli(Fraction(law["p1"]))
    if kind == "binomial":
        return dists.Binomial(law["nbar"], Fraction(law["p1"]))
    if kind == "geometric":
        return dists.Geometric(Fraction(law["p1"]))
    if kind == "negbinomial":
        return dists.NegBinomial(law["a"], Fraction(law["p1"]))
    if kind == "uniform01":
        return dists.Uniform01()
    raise ValueError(f"unknown law {kind!r}")


def point_q(point: dict) -> Fraction:
    return Fraction(point["rho"]) ** point["d"]


def output_files(workload: str, inputs: dict, out_dir: Path) -> list[Path]:
    if workload == "audit":
        return [out_dir / "audit.jsonl"]
    if workload == "table":
        return [out_dir / f"table_{i}.csv" for i in range(len(inputs["laws"]))]
    return [out_dir / "laurent.txt"]


def install_marks(workload: str, mark):
    """Make the program call ``mark`` at each step boundary of the workload:
    before each ``audit.run_case`` call (audit) and before the first
    ``families.prob_qbernstein`` call of each n (table); laurent marks in
    run().  Returns a function that takes the marks out again.  A boundary
    the program no longer has is skipped; the instance is then fewer, longer
    steps (see refclock.py)."""
    from qbernstein import audit, families

    if workload == "laurent":
        return lambda: None
    module, name = (audit, "run_case") if workload == "audit" else (families, "prob_qbernstein")
    inner = getattr(module, name, None)
    if inner is None:
        return lambda: None
    last_n = []

    def marked(*args, **kwargs):
        if workload == "audit":
            mark()
        else:
            n = args[2] if len(args) > 2 else kwargs.get("n")
            if last_n != [n]:
                mark()
                last_n[:] = [n]
        return inner(*args, **kwargs)

    setattr(module, name, marked)
    return lambda: setattr(module, name, inner)


def run(workload: str, inputs: dict, out_dir: Path, cli_main, mark) -> None:
    """Run one workload instance.  ``cli_main`` is looked up by the caller so
    a traced run sees the wrapped entry point; ``mark`` is called at each
    (law, n) of the laurent loop, the steps install_marks() does not give."""
    files = output_files(workload, inputs, out_dir)
    if workload == "audit":
        rc = cli_main([
            "audit", "--seed", str(inputs["seed"]), "--trials", str(inputs["trials"]),
            "--order", str(inputs["order"]), "--out", str(files[0]),
        ])
        # Exit code 1 means an expected-pass record failed; the report is
        # complete and the check counts each such record.
        if rc not in (0, 1):
            raise RuntimeError(f"qbernstein audit exited with {rc}")
        return
    point = inputs["point"]
    if workload == "table":
        span = f"0..{inputs['n']}"
        point_flags = ["--rho", point["rho"], "--c", str(point["c"]), "--d", str(point["d"])]
        for law, path in zip(inputs["laws"], files):
            rc = cli_main(
                ["table"] + law_flags(law) + point_flags
                + ["--n", span, "--r", span, "--out", str(path)]
            )
            if rc != 0:
                raise RuntimeError(f"qbernstein table exited with {rc}")
        return
    import qbernstein

    q = point_q(point)
    with open(files[0], "w") as fh:
        for i, law in enumerate(inputs["laws"]):
            dist = build_law(law)
            for n in range(inputs["n"] + 1):
                mark()
                for r in range(n + 1):
                    bos, ferm = qbernstein.integrate_corollaries(dist, r, n, q)
                    fh.write(f"{i} {n} {r} {bos} | {ferm}\n")
