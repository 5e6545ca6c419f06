"""Per-layer tracing, installed from the benchmark's own files.

The tracer wraps the public functions of each package module in a span that
counts calls and records time.  A span's self time is its duration minus the
time its child spans cover; its total time counts only the outermost of
nested calls of the same span.  Module-level functions are replaced in every
``qbernstein`` module that holds them (``audit`` and ``padic`` import
``families`` functions by name, the package re-exports most of them) and in
the closures that captured them (the audit registry's convolution cases), and
methods are replaced on their classes, including aliases such as
``__rmul__ = __mul__``.

Layers and the spans recorded for them:

  L0  series   Series mul/recip/exp/log/pow
      rings    Laurent mul/pow, Poly call, LogPoly mul/add
  L1  distributions  every law's own mgf_series, Distribution.moment
  L2  families       the value functions in FAMILY_FUNCS
  L3  padic          the integral operators in PADIC_FUNCS
  L4  audit          one span per registry entry, plus rendering
  front end  cli.main
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SERIES_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "recip": ("recip",),
    "exp": ("exp",),
    "log": ("log",),
    "pow": ("pow",),
}
RING_OPS = {
    "laurent_mul": ("Laurent", ("__mul__", "__rmul__")),
    "laurent_pow": ("Laurent", ("__pow__",)),
    "poly_call": ("Poly", ("__call__",)),
    "logpoly_mul": ("LogPoly", ("__mul__", "__rmul__")),
    "logpoly_add": ("LogPoly", ("__add__", "__radd__")),
}
FAMILY_FUNCS = (
    "prob_qbernstein", "prob_stirling2", "prob_qbernstein_laurent", "stirling2",
    "prob_bernoulli_higher", "prob_euler", "frobenius_euler", "higher_bernoulli",
    "bell_poly",
)
PADIC_FUNCS = (
    "volkenborn", "fermionic", "integrate_corollaries", "integrate_weighted_term",
)

# The one workload-defining layer of each workload; its call count must be
# non-zero in a traced run, or the trace did not see the work.
HEADLINE = {
    "audit": "families.prob_stirling2",
    "table": "families.prob_qbernstein",
    "laurent": "padic.integrate_corollaries",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._stack = [[0.0]]
        self._depth = Counter()

    def wrap(self, name, fn, before=None):
        """A function that runs ``fn`` inside a span; ``name`` is a string or
        a function of the call's arguments, ``before`` sees the arguments."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            key = name(args) if callable(name) else name
            if before is not None:
                before(args)
            calls[key] += 1
            depth[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                depth[key] -= 1
                if depth[key] == 0:
                    total_s[key] += elapsed

        return traced

    def exclude(self, seconds: float):
        """Leave ``seconds`` just spent outside the program (the benchmark's
        reference kernel) out of the self time of the innermost open span."""
        self._stack[-1][0] += seconds

    def install(self):
        from qbernstein import audit, cli, distributions, families, padic, rings, series

        def on_series(args):
            order = args[0].order
            self.counts["series.max_order"] = max(self.counts["series.max_order"], order)

        def on_mul(args):
            on_series(args)
            n = args[0].order
            if isinstance(args[1], series.Series):
                self.counts["series.mul.coeff_mults"] += (n + 1) * (n + 2) // 2
            else:
                self.counts["series.mul.coeff_mults"] += n + 1

        def on_pow(args):
            on_series(args)
            if isinstance(args[1], rings.Poly):
                self.counts["series.pow.symbolic_calls"] += 1

        for op, attrs in SERIES_OPS.items():
            hook = {"mul": on_mul, "pow": on_pow}.get(op, on_series)
            self._wrap_methods(series.Series, attrs, f"series.{op}", hook)
        for op, (cls_name, attrs) in RING_OPS.items():
            self._wrap_methods(getattr(rings, cls_name), attrs, f"rings.{op}")

        base = distributions.Distribution
        for cls in list(vars(distributions).values()):
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                self._wrap_methods(cls, ("mgf_series",), "distributions.mgf_series")
        self._wrap_methods(distributions.Distribution, ("moment",), "distributions.moment")

        for fn in FAMILY_FUNCS:
            self._wrap_function(families, fn, f"families.{fn}")
        for fn in PADIC_FUNCS:
            self._wrap_function(padic, fn, f"padic.{fn}")

        self._wrap_function(
            audit, "run_case", lambda args: f"audit.case.{args[0].id}.{args[0].variant}"
        )
        self._wrap_function(audit, "render_value", "audit.render")
        self._wrap_methods(audit.AuditReport, ("to_jsonl",), "audit.render")
        self._wrap_function(cli, "main", "cli.main")

    def _wrap_methods(self, cls, attrs, name, before=None):
        for attr in attrs:
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], before))

    def _wrap_function(self, module, attr, name):
        """Replace a module-level function wherever the package holds it: in
        module namespaces, and in the closures of module-level functions and
        of the audit registry's evaluators, which capture some by value."""
        from qbernstein.audit import REGISTRY

        original = getattr(module, attr)
        traced = self.wrap(name, original)
        functions = [f for case in REGISTRY for f in (case.draw, case.evaluate) if f]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qbernstein" or mod_name.startswith("qbernstein."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif callable(value):
                        functions.append(value)
        for fn in functions:
            for cell in getattr(fn, "__closure__", None) or ():
                if cell.cell_contents is original:
                    cell.cell_contents = traced

    def report(self, case_keys, skip_records: int) -> tuple[dict, dict]:
        """The per-layer metrics as (counts, times): counts repeat exactly
        from run to run, times do not."""
        counts, times = {}, {}
        for op in SERIES_OPS:
            counts[f"series.{op}.calls"] = self.calls[f"series.{op}"]
            times[f"series.{op}.self_s"] = self.self_s[f"series.{op}"]
        for key in ("series.mul.coeff_mults", "series.pow.symbolic_calls", "series.max_order"):
            counts[key] = self.counts[key]
        for op in RING_OPS:
            counts[f"rings.{op}.calls"] = self.calls[f"rings.{op}"]
            times[f"rings.{op}.self_s"] = self.self_s[f"rings.{op}"]
        counts["distributions.mgf_series.calls"] = self.calls["distributions.mgf_series"]
        times["distributions.mgf_series.self_s"] = self.self_s["distributions.mgf_series"]
        counts["distributions.moment.calls"] = self.calls["distributions.moment"]
        family_calls = 0
        for fn in FAMILY_FUNCS:
            counts[f"families.{fn}.calls"] = self.calls[f"families.{fn}"]
            times[f"families.{fn}.total_s"] = self.total_s[f"families.{fn}"]
            family_calls += self.calls[f"families.{fn}"]
        counts["families.mgf_builds_per_value"] = (
            self.calls["distributions.mgf_series"] / family_calls if family_calls else 0.0
        )
        for fn in PADIC_FUNCS:
            counts[f"padic.{fn}.calls"] = self.calls[f"padic.{fn}"]
            times[f"padic.{fn}.self_s"] = self.self_s[f"padic.{fn}"]
        for case_id, variant in case_keys:
            key = f"audit.case.{case_id}.{variant}"
            times[f"{key}.s"] = self.total_s[key]
        times["audit.render_s"] = self.total_s["audit.render"]
        counts["audit.skip_records"] = skip_records
        times["cli.main.self_s"] = self.self_s["cli.main"]
        return counts, times


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric == "families.mgf_builds_per_value":
        return "ratio"
    return "count"
