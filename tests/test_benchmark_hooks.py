"""The benchmark's tracer (``perfbench/tracing.py``) wraps package attributes
by name: the Series kernels, ``rings.Poly.__call__``, each law's own
``mgf_series``, the family and integral functions, ``audit.run_case`` and
``AuditReport.to_jsonl``.  A rename or a deletion of any of them breaks
``perfbench/run.py --trace 1``.  This runs every workload at its tiny size
under the tracer and checks that the tracer saw each workload's headline
layer.  It runs in a fresh interpreter, since the tracer patches the package
for the life of the process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import tracing, workloads

tracer = tracing.Tracer()
tracer.install()
from qbernstein import cli

with tempfile.TemporaryDirectory() as tmp:
    for w in workloads.WORKLOADS:
        out = Path(tmp) / w
        out.mkdir()
        unmark = workloads.install_marks(w, lambda: None)
        inputs = workloads.make_inputs(w, 1, 0, workloads.TINY)
        workloads.run(w, inputs, out, cli.main, lambda: None)
        unmark()
        headline = tracing.HEADLINE[w]
        assert tracer.calls[headline] > 0, f"{w}: no {headline} call traced"
"""


def test_tracer_hooks_see_every_workload():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
