"""Times scaled by the speed of a reference kernel measured next to them.

On a shared host the same computation runs at very different speeds from one
second to the next: neighbours on the same cores slow pure-Python exact
arithmetic by up to about 70%, in stretches of a second to a minute.  So the
benchmark cuts each workload instance into steps of a few to a hundred
milliseconds, runs a fixed reference kernel between consecutive steps, and
scales each step by how fast the kernel ran on either side of it:

    scaled step = raw step * REFERENCE_S / mean(kernel before, kernel after)

The sum of the scaled steps is the instance's time in units of the kernel,
expressed in seconds of a machine on which the kernel takes REFERENCE_S
(about what an unloaded 2-core x86-64 VM gives).  The kernel is exact
Fraction arithmetic, the same kind of work as the package, so it slows down
with the workload; the kernel is part of the benchmark, not of the program,
so a change to the program moves the steps and leaves the kernel alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of the kernel: a truncated product of two series
    with Fraction coefficients, repeated."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    a = [Fraction(k + 1, 2 * k + 3) for k in range(14)]
    b = [Fraction(3 * k + 1, k + 5) for k in range(14)]
    for _ in range(3):
        a = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(14)]
    return time.perf_counter() - wall0, time.process_time() - cpu0


def scaled(steps: list[float], refs: list[float]) -> float:
    """Sum of the steps, each scaled by the kernel times on its two sides;
    ``refs`` has one more entry than ``steps``."""
    return sum(
        step * 2 * REFERENCE_S / (before + after)
        for step, before, after in zip(steps, refs, refs[1:])
    )
