"""Fast self-test of the benchmark at tiny sizes (audit --trials 1 --order 8,
n <= 4).  Run from the root of a checkout:

  python3 perfbench/selftest.py

It shows that every metric named in BENCHMARK.json is produced for each
workload, that traced counts repeat exactly across two traced runs, and that
a deliberately wrong oracle value is counted as a failed check.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import checks
import run
from tracing import unit_of
from workloads import TINY, WORKLOADS, make_inputs, output_files

sys.path.insert(0, str(run.ROOT / "src"))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, message: str):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    for workload in WORKLOADS:
        metrics, _, tally = run.measure(workload, 42, 1, TINY, instances=2)
        expect(tally.failed == 0, f"{workload}: plain run passes its {tally.attempted} checks")
        units = {k: run.END_TO_END_UNITS[k] for k in metrics}
        expect(units == end_to_end, f"{workload}: plain run gives every end-to-end metric")
        traced = []
        for _ in range(2):
            metrics, tally = run.measure_traced(workload, 42, 1, TINY)
            expect(tally.failed == 0, f"{workload}: traced run passes its {tally.attempted} checks")
            traced.append(metrics)
        units = {k: unit_of(k) for k in traced[0]}
        expect(units == per_layer, f"{workload}: traced run gives every per-layer metric")
        counts = [{k: v for k, v in m.items() if unit_of(k) != "s"} for m in traced]
        expect(counts[0] == counts[1], f"{workload}: traced counts repeat exactly")

    for workload, wrong in (
        ("table", {"touchard": lambda n, r, x, z: checks.sympy_touchard(n, r, x, z) + 1}),
        ("laurent", {"scalar": lambda d, r, n, p: checks.package_scalar(d, r, n, p) + Fraction(1, 7)}),
    ):
        inputs = make_inputs(workload, 42, 0, TINY)
        run.fresh_state()
        run.run_instance(workload, inputs, 0, False, False, time.monotonic() + run.RUN_LIMIT_S)
        files = output_files(workload, inputs, run.STATE / "out" / "0")
        tally = run.Tally()
        tally.add(*checks.CHECKS[workload](inputs, files))
        right = tally.failed
        tally.add(*checks.CHECKS[workload](inputs, files, **wrong))
        ratio = tally.failed / tally.attempted
        expect(
            right == 0 and ratio > 0,
            f"{workload}: a wrong oracle gives failed_ratio {ratio:.3f} ({tally.failed} of {tally.attempted})",
        )

    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
