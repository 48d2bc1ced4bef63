"""Span tracing of one CLI invocation, installed from outside the program.

``Tracer.install`` wraps each traced function at every binding a caller can
look it up through: the defining module and every ``sqgbounds`` module that
imported the name.  DST/DCT calls are counted by replacing the ``scipy.fft``
module that ``sqgbounds.spectral`` holds as ``fft`` with a proxy whose
transform functions are wrapped.  Spans (name, start, end, parent index) are
kept in memory and summarised into per-layer metrics after the run.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
import types

from workloads import VERIFY_FAMILIES as FAMILIES

# (module, function, stats): "calls" count, "ms" median inclusive duration
# per call, "s" total self time.
TRACED = (
    ("spectral", "eval_fine_mixed", ("calls", "ms")),
    ("spectral", "forward_fine", ("calls", "ms")),
    ("spectral", "inverse", ("calls", "ms")),
    ("spectral", "dealiased_product", ("calls", "ms")),
    ("solver", "run", ("s",)),
    ("solver", "step", ("calls", "ms")),
    ("solver", "advection_coeffs", ("calls", "ms")),
    ("solver", "velocity_sup", ("calls", "ms")),
    ("operators", "riesz_velocity", ("calls", "ms")),
    ("operators", "commutator", ("calls", "s")),
    ("operators", "standard_cutoff", ("calls", "s")),
    ("operators", "finite_difference", ("calls", "s")),
    ("geometry", "build_square_geometry", ("calls", "s")),
    ("diagnostics", "record", ("calls", "ms")),
    ("diagnostics", "append_csv", ("calls", "ms")),
    ("checkpoint", "save_checkpoint", ("calls", "ms")),
    ("config", "load_config", ("ms",)),
    ("cli", "cmd_run", ()),
    ("cli", "_verify_dispatch", ()),
)


FFT_FUNCTIONS = ("dst", "dct", "dstn", "dctn", "idst", "idct", "idstn", "idctn")
FFT_SPAN = "spectral.fft"


class Tracer:
    """Collects nested spans; one instance per traced invocation."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self.points = 0                  # array elements passed to transforms
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count_points: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_points:
                self.points += args[0].size
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded modules."""
        import sqgbounds.spectral as spectral

        modules = [m for name, m in list(sys.modules.items())
                   if name == "sqgbounds" or name.startswith("sqgbounds.")]
        targets = [(f"sqgbounds.{mod}", fn, f"{mod}.{fn}")
                   for mod, fn, _ in TRACED]
        targets += [("sqgbounds.inequalities", f"verify_{fam}",
                     f"inequalities.{fam}") for fam in FAMILIES]
        for module_name, attr, span in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

        real = spectral.fft
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        for name in FFT_FUNCTIONS:
            setattr(proxy, name, self.wrap(FFT_SPAN, getattr(real, name),
                                           count_points=True))
        spectral.fft = proxy

    def export(self) -> dict:
        return {"spans": self.spans, "fft_points": self.points}


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced invocation (name -> value)."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        by_name.setdefault(name, []).append((end - start, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def median_ms(name):
        durs = [d for d, _ in by_name.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    def total(name, index):
        return float(sum(item[index] for item in by_name.get(name, ())))

    out = {f"{FFT_SPAN}.calls": calls(FFT_SPAN),
           f"{FFT_SPAN}.points": trace["fft_points"],
           f"{FFT_SPAN}.s": total(FFT_SPAN, 1)}
    for mod, fn, stats in TRACED:
        name = f"{mod}.{fn}"
        for stat in stats:
            out[f"{name}.{stat}"] = {"calls": calls(name),
                                     "ms": median_ms(name),
                                     "s": total(name, 1)}[stat]
    for fam in FAMILIES:
        name = f"inequalities.{fam}"
        out[f"{name}.s"] = total(name, 1)
        out[f"{name}.total_s"] = total(name, 0)
    out["cli.output_s"] = total("cli.cmd_run", 0) - total("solver.run", 0) \
        if calls("cli.cmd_run") else 0.0
    out["cli.verify_dispatch.s"] = total("cli._verify_dispatch", 1)
    out["trace.spans"] = len(spans)
    return out


def self_time_sum(trace: dict) -> float:
    return float(sum(self_times(trace["spans"])))
