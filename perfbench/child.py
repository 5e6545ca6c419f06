"""Run one workload instance in a fresh, single-threaded process.

Usage: python3 child.py REQUEST_JSON RESULT_PATH

Every cache in the package is a process-global ``lru_cache``, so each
instance gets a process of its own.  The request carries the generated inputs
(never the seed), the output directory, whether to trace, whether to check
the outputs, the monotonic time at which the parent spawned this process and
the reference kernel's wall time just before.  Set-up time runs from that
spawn until ``qbernstein.cli.build_parser()`` returns.  The result, written
to RESULT_PATH as JSON, has the set-up time, the wall and CPU time of the
workload, peak resident memory, a SHA-256 of the outputs, and when asked
for, the checks and the per-layer trace.

Every time is reported raw and scaled by the reference kernel (refclock.py).
The workload is cut into steps at each audit case run, each n of the table
and each (law, n) of the laurent loop (workloads.install_marks and
workloads.run); the kernel runs at each cut, outside the steps.  Set-up time
is scaled by the kernel run by the parent before the spawn and by this
process after set-up.
"""

import json
import sys
import time

from refclock import REFERENCE_S, reference, scaled


def main() -> int:
    request = json.loads(sys.argv[1])
    from qbernstein import cli

    cli.build_parser()
    setup = time.monotonic() - request["spawned_at"]
    reference()  # warm-up: the first run of the kernel in a process is slower
    ref = (request["ref_before"] + reference()[0]) / 2
    result = {"setup_raw_s": setup, "setup_s": setup * REFERENCE_S / ref}
    if request.get("workload") is not None:
        result.update(run_instance(request))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


def run_instance(request: dict) -> dict:
    import hashlib
    import resource
    from pathlib import Path

    import checks
    import workloads
    from qbernstein import audit, cli
    from tracing import Tracer

    workload, inputs = request["workload"], request["inputs"]
    out_dir = Path(request["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    ends, starts, refs = [], [], []

    def mark():
        ends.append((time.perf_counter(), time.process_time()))
        refs.append(reference())
        starts.append((time.perf_counter(), time.process_time()))
        if tracer is not None:
            tracer.exclude(starts[-1][0] - ends[-1][0])

    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    unmark = workloads.install_marks(workload, mark)
    mark()
    workloads.run(workload, inputs, out_dir, cli.main, mark)
    mark()
    unmark()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps_wall = [end[0] - start[0] for start, end in zip(starts, ends[1:])]
    steps_cpu = [end[1] - start[1] for start, end in zip(starts, ends[1:])]
    files = workloads.output_files(workload, inputs, out_dir)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    out = {
        "wall_raw_s": sum(steps_wall),
        "cpu_raw_s": sum(steps_cpu),
        "wall_s": scaled(steps_wall, [r[0] for r in refs]),
        "cpu_s": scaled(steps_cpu, [r[1] for r in refs]),
        "peak_rss_mb": peak_kib / 1024,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        skips = 0
        if workload == "audit":
            records = files[0].read_text().splitlines()
            skips = sum(json.loads(line)["status"] == "SKIP" for line in records)
        case_keys = [(c.id, c.variant) for c in audit.REGISTRY]
        out["counts"], out["times"] = tracer.report(case_keys, skips)
    if request["check"]:
        out["attempted"], out["failed"], out["notes"] = checks.CHECKS[workload](inputs, files)
    return out


if __name__ == "__main__":
    sys.exit(main())
