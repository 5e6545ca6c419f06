"""The benchmark's tracer (``perfbench/tracing.py``) wraps package attributes
by name: the Series kernels, ``rings.Poly.__call__``, each law's own
``mgf_series``, the family and integral functions, ``audit.run_case`` and
``AuditReport.to_jsonl``.  A rename or a deletion of any of them breaks
``perfbench/run.py --trace 1``.  This runs every workload at its tiny size
under the tracer and checks that the tracer saw each workload's headline
layer.  It also counts the marks ``workloads.install_marks`` makes the
program call, which it can only do while the front end reads
``families.prob_qbernstein`` and ``audit.run_case`` through their modules at
each call.  It runs in a fresh interpreter, since the tracer patches the
package for the life of the process."""

import importlib.util
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qbernstein import audit

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import tracing, workloads

tracer = tracing.Tracer()
tracer.install()
from qbernstein import audit, cli

# the marks install_marks() makes the program call: one per (law, n) of the
# table, n running over 0..table_n for each of its six laws, and one per
# audit.run_case call, one per registry entry and trial
sizes = workloads.TINY
MARKS = {
    "audit": len(audit.REGISTRY) * sizes.audit_trials,
    "table": 6 * (sizes.table_n + 1),
    "laurent": 0,
}
with tempfile.TemporaryDirectory() as tmp:
    for w in workloads.WORKLOADS:
        out = Path(tmp) / w
        out.mkdir()
        marks = []
        unmark = workloads.install_marks(w, lambda: marks.append(None))
        inputs = workloads.make_inputs(w, 1, 0, sizes)
        workloads.run(w, inputs, out, cli.main, lambda: None)
        unmark()
        headline = tracing.HEADLINE[w]
        assert tracer.calls[headline] > 0, f"{w}: no {headline} call traced"
        assert len(marks) == MARKS[w], f"{w}: {len(marks)} marks, not {MARKS[w]}"
"""


def test_tracer_hooks_see_every_workload():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_the_benchmark_grids_stay_those_of_the_audit(monkeypatch):
    """perfbench/workloads.py repeats the audit's grids, so that it draws its
    inputs without importing the program under test.  Its grids equal the
    audit's as Fractions, and its laws and points are exactly those of the
    audit's domains: d in 2..4 and c in 1..d - 1."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in ("RHO_GRID", "ALPHA_GRID", "P1_GRID", "TRIALS_GRID", "SUCCESSES_GRID"):
        assert [Fraction(v) for v in getattr(workloads, name)] == getattr(audit, name), name
    assert audit.D_GRID == [2, 3, 4]
    points = {
        (Fraction(p["rho"]), p["c"], p["d"])
        for p in (workloads.draw_point(random.Random(i)) for i in range(2000))
    }
    assert points == {(p.rho, p.c, p.d) for p in audit.enumerate_indices(audit.Q_POINTS)}
    laws = {
        workloads.build_law(law)
        for i in range(500) for law in workloads.draw_laws(random.Random(i))
    }
    assert laws == set(audit.enumerate_indices(audit.LAWS))
