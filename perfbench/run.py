"""Benchmark of the qbernstein package.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload audit|table|laurent|all
                           [--seed N] [--seconds S] [--trace 0|1]

The seed is turned into workload inputs here (see workloads.py); each
instance runs in a fresh child process that receives only those inputs.  A
plain run (--trace 0) runs a number of seeded instances fixed by --seconds,
one at a time, each once, and reports the mean over instances of:

  wall_s       wall time of the workload                        (s)
  cpu_s        CPU time of the child over the workload          (s)
  setup_s      child start until cli.build_parser() returns;
               median over every child of the run               (s)
  peak_rss_mb  peak resident memory of the child                (MB)

The three times are scaled, step by step, by the speed of a reference kernel
run between the steps (refclock.py), so that they do not follow the speed of
a shared host from one second to the next; the raw times are printed too.

A traced run (--trace 1) repeats the first instance, alternating a plain and
a traced child, and reports the per-layer metrics of tracing.py: counts from
the traced children (which must repeat exactly), times as medians, and the
tracing overhead as traced minus plain wall_s.

Every output is checked (checks.py) and its SHA-256 compared with every other
run of the same inputs and source tree; a digest that differs counts as a
failed check.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import reference
from tracing import HEADLINE, unit_of
from workloads import FULL, WORKLOADS, Sizes, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the metrics but not part of the result: the same times before
# scaling by the reference kernel.
RAW_UNITS = {"wall_raw_s": "s", "cpu_raw_s": "s", "setup_raw_s": "s"}
# Run seconds given to each seeded instance: a plain run measures
# round(seconds / SECONDS_PER_INSTANCE) instances, so its inputs depend on the
# seed and the run length only, never on the speed of the machine.  At
# --seconds 40 that is 10 audit, 2 table and 5 laurent instances.  The audit
# gets most of the time because its cost varies most from seed to seed: 16%
# between single instances (nearly all of it in the P-LOG cases), against 2%
# for table and 4% for laurent.  A run takes 15 to 60 s on a 2-core x86-64 VM.
SECONDS_PER_INSTANCE = {"audit": 4.0, "table": 20.0, "laurent": 8.0}
SETUP_PROBES = 5
# Every child must end by this many seconds after the run starts, so that a
# run that hangs still exits within the 180 s a run is allowed.
RUN_LIMIT_S = 170


class ChildFailed(Exception):
    pass


class Tally:
    """Checks attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def add(self, attempted: int, failed: int, notes: list[str]):
        self.attempted += attempted
        self.failed += failed
        self.notes += notes


class DigestStore:
    """SHA-256 of each output, keyed by source tree and inputs, kept across
    runs in the checkout; the same key with another digest is a failure."""

    def __init__(self):
        self.path = STATE / "digests.json"
        self.digests = json.loads(self.path.read_text()) if self.path.is_file() else {}
        tree = hashlib.sha256()
        for base in (ROOT / "src", HERE):
            for path in sorted(base.rglob("*.py")):
                tree.update(str(path.relative_to(ROOT)).encode())
                tree.update(path.read_bytes())
        self.tree = tree.hexdigest()

    def agrees(self, workload: str, inputs: dict, digest: str) -> bool:
        key = hashlib.sha256(
            f"{self.tree}:{workload}:{json.dumps(inputs, sort_keys=True)}".encode()
        ).hexdigest()
        known = self.digests.setdefault(key, digest)
        return known == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, sort_keys=True))
        os.replace(tmp, self.path)


def spawn(request: dict, limit: float) -> dict:
    """Run child.py on one request and return its result; the child is killed
    at the monotonic time ``limit``."""
    timeout = limit - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("the run reached its time limit")
    result_path = STATE / "result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("QBERN_ORDER", None)
    request = dict(request, ref_before=reference()[0])
    request["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request), str(result_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"child exited with {proc.returncode}: {tail[0]}")
    return json.loads(result_path.read_text())


def run_instance(
    workload: str, inputs: dict, index: int, trace: bool, check: bool, limit: float
) -> dict:
    out_dir = STATE / "out" / f"{index}{'t' if trace else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return spawn({
        "workload": workload, "inputs": inputs, "out_dir": str(out_dir),
        "trace": trace, "check": check,
    }, limit)


def fresh_state():
    shutil.rmtree(STATE / "out", ignore_errors=True)
    STATE.mkdir(exist_ok=True)


def measure(
    workload: str, seed: int, seconds: float, sizes: Sizes = FULL, instances: int | None = None
) -> tuple[dict, dict, Tally]:
    """The plain run: end-to-end metrics, the same times unscaled, and the
    checks of every output."""
    fresh_state()
    tally, store = Tally(), DigestStore()
    limit = time.monotonic() + RUN_LIMIT_S
    count = instances or max(1, round(seconds / SECONDS_PER_INSTANCE[workload]))
    children = [spawn({}, limit) for _ in range(SETUP_PROBES)]
    measured = []
    for i in range(count):
        inp = make_inputs(workload, seed, i, sizes)
        try:
            res = run_instance(workload, inp, i, False, True, limit)
        except ChildFailed as exc:
            tally.check(False, f"{workload}[{i}]: {exc}")
            continue
        tally.add(res["attempted"], res["failed"], res["notes"])
        tally.check(
            store.agrees(workload, inp, res["digest"]),
            f"{workload}[{i}]: output digest differs from an earlier run",
        )
        children.append(res)
        measured.append(res)
    store.save()
    if not measured:
        return {}, {}, tally
    metrics = {
        key: statistics.fmean(r[key] for r in measured)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(c["setup_s"] for c in children)
    raw = {key: statistics.fmean(r[key] for r in measured) for key in ("wall_raw_s", "cpu_raw_s")}
    raw["setup_raw_s"] = statistics.median(c["setup_raw_s"] for c in children)
    return metrics, raw, tally


def measure_traced(
    workload: str, seed: int, seconds: float, sizes: Sizes = FULL
) -> tuple[dict, Tally]:
    """The traced run: per-layer metrics of the first seeded instance."""
    fresh_state()
    tally, store = Tally(), DigestStore()
    started = time.monotonic()
    deadline, limit = started + seconds, started + RUN_LIMIT_S
    inputs = make_inputs(workload, seed, 0, sizes)
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() < deadline:
        try:
            p = run_instance(workload, inputs, 0, False, not plain, limit)
            t = run_instance(workload, inputs, 0, True, False, limit)
        except ChildFailed as exc:
            tally.check(False, f"{workload}: {exc}")
            break
        if not plain:
            tally.add(p["attempted"], p["failed"], p["notes"])
        tally.check(
            store.agrees(workload, inputs, p["digest"]),
            f"{workload}: output digest differs from an earlier run",
        )
        tally.check(t["digest"] == p["digest"], f"{workload}: traced output differs from plain")
        if traced:
            tally.check(t["counts"] == traced[0]["counts"], f"{workload}: traced counts differ between runs")
        plain.append(p)
        traced.append(t)
    store.save()
    if not traced:
        return {}, tally
    counts = traced[0]["counts"]
    tally.check(counts[f"{HEADLINE[workload]}.calls"] > 0, f"{workload}: no calls of {HEADLINE[workload]}")
    metrics = dict(counts)
    for key in traced[0]["times"]:
        metrics[key] = statistics.median(t["times"][key] for t in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    return metrics, tally


def result_line(metrics: dict, tally: Tally, units: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def print_summary(workload: str, metrics: dict, tally: Tally, units: dict):
    for note in tally.notes[:20]:
        print(f"{workload}: FAILED {note}")
    for key, value in metrics.items():
        print(f"{workload:8s} {key:44s} {value:14.6g} {units[key]}")
    ratio = tally.failed / max(tally.attempted, 1)
    print(f"{workload:8s} {'failed_ratio':44s} {ratio:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} checks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qbernstein" / "__init__.py").is_file():
        print(f"error: no qbernstein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            if args.trace:
                metrics, tally = measure_traced(workload, args.seed, args.seconds)
                units = {k: unit_of(k) for k in metrics}
                raw = {}
            else:
                metrics, raw, tally = measure(workload, args.seed, args.seconds)
                units = END_TO_END_UNITS
        except ChildFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_summary(workload, {**metrics, **raw}, tally, {**units, **RAW_UNITS})
        if not metrics:
            print(f"error: no instance of {workload} completed", file=sys.stderr)
            return 1
        results[workload] = result_line(metrics, tally, units)
    if len(workloads) == 1:
        print(results[workloads[0]])
    else:
        print(json.dumps({w: json.loads(line) for w, line in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
