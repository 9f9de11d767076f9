"""Span tracing of momentflow from outside the package.

The tracer replaces the names that callers actually look up -- module
globals such as ``momentflow.flow.prox_step``, class attributes such as
``OperatorAssembly.metric_norm_sq`` and the ``scipy.linalg`` kernels -- by
wrappers that record one span per call, and puts the originals back when
the traced block ends.  Nothing under ``src/`` knows about it.

A span holds its name, start, end, the index of the span that was open
when it began (its parent), the id of the operation it belongs to, whether
it raised, and one size attribute (matrix order for kernels, bytes for
writes).  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

# (owner, attribute, span name, size note).  The owner is a dotted module
# path, optionally followed by ":Class".  A module-level function is
# replaced in every momentflow module that binds it, so the span is recorded
# whichever module the caller looked it up in.
TARGETS = (
    ("momentflow.cli", "execute", "cli.execute", None),
    ("momentflow.cli", "initial_state", "cli.initial_state", None),
    ("momentflow.cli", "write_flow_csv", "cli.write", "path"),
    ("momentflow.cli", "_write_json", "cli.write", "path"),
    ("momentflow.flow", "run_flow", "flow.run_flow", None),
    ("momentflow.flow", "run_linear_flow", "flow.run_linear_flow", None),
    ("momentflow.flow", "prox_step", "flow.prox_step", None),
    ("momentflow.flow", "energy", "flow.energy", None),
    ("momentflow.heat", "assemble_operator", "heat.assemble", "n_points"),
    ("momentflow.heat", "spectrum", "heat.spectrum", None),
    ("momentflow.heat", "heat_step", "heat.heat_step", None),
    ("momentflow.heat", "integration_by_parts_residual",
     "heat.integration_by_parts_residual", None),
    ("momentflow.heat:OperatorAssembly", "eigensystem", "heat.eigensystem", None),
    ("momentflow.heat:OperatorAssembly", "metric_norm_sq",
     "heat.metric_norm_sq", None),
    ("momentflow.suite", "identity_suite", "suite.identity_suite", None),
    ("momentflow.moments", "moment", "moments.moment", None),
    ("momentflow.moments", "moment_weight_row", "moments.moment_weight_row", None),
    ("momentflow.moments", "centered_primitive", "moments.centered_primitive", None),
    ("momentflow.moments", "centered_tail_integral",
     "moments.centered_tail_integral", None),
    ("momentflow.moments", "polynomial_with_moments",
     "moments.polynomial_with_moments", None),
    ("momentflow.grid:Polynomial", "__mul__", "grid.poly_mul", None),
    ("momentflow.grid:Polynomial", "__rmul__", "grid.poly_mul", None),
    ("momentflow.grid:Polynomial", "definite_integral", "grid.definite_integral", None),
    ("momentflow.dual", "dual_inner", "dual.dual_inner", None),
    ("scipy.linalg", "lu_factor", "lapack.lu_factor", "order"),
    ("scipy.linalg", "lu_solve", "lapack.lu_solve", None),
    ("scipy.linalg", "eigh", "lapack.eigh", "order"),
    ("scipy.linalg", "null_space", "lapack.null_space", None),
)

# LAPACK spans belong to the layer whose span is open when they are called.
KERNEL_LAYER = "lapack"
LAYERS = ("cli", "flow", "heat", "suite", "moments", "grid", "dual")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool = False
    size: int = 0


def _size_note(note, args, kwargs):
    if note == "order":
        return int(args[0].shape[0])
    if note == "n_points":
        return int(args[2] if len(args) > 2 else kwargs["n_points"])
    if note == "path":
        return os.path.getsize(args[0])
    return 0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrapper(self, original, name, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.size = _size_note(note, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        replaced = []
        try:
            for owner_path, attr, name, note in TARGETS:
                module_name, _, class_name = owner_path.partition(":")
                module = sys.modules[module_name]
                if class_name:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    owners = [owner]
                else:
                    original = getattr(module, attr)
                    owners = [module]
                    if module_name.startswith("momentflow"):
                        owners = [m for key, m in list(sys.modules.items())
                                  if key.split(".")[0] == "momentflow"
                                  and getattr(m, attr, None) is original]
                wrapper = self._wrapper(original, name, note)
                for owner in owners:
                    setattr(owner, attr, wrapper)
                    replaced.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and
    their durations can simply be subtracted.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(spans, index: int) -> str:
    """Layer that owns a span; kernel spans inherit their caller's layer."""
    span = spans[index]
    layer = span.name.split(".")[0]
    while layer == KERNEL_LAYER and span.parent >= 0:
        span = spans[span.parent]
        layer = span.name.split(".")[0]
    return layer


def tail_percentile(count: int):
    """Highest of the 50th, 90th, 99th and 99.9th percentiles that still has
    at least ten samples beyond it, or None when there are too few."""
    best = None
    for permille in (500, 900, 990, 999):
        if count * (1000 - permille) >= 10 * 1000:
            best = permille / 10
    return best


def _quantile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _latency(durations_s, prefix: str, units: int) -> dict:
    count = len(durations_s)
    out = {f"{prefix}_calls": count / units, f"{prefix}_ms_p50": 0.0,
           f"{prefix}_ms_tail": 0.0, f"{prefix}_tail_pct": 0.0}
    if count:
        out[f"{prefix}_ms_p50"] = 1e3 * statistics.median(durations_s)
        pct = tail_percentile(count)
        if pct is not None:
            out[f"{prefix}_ms_tail"] = 1e3 * _quantile(durations_s, pct)
            out[f"{prefix}_tail_pct"] = pct
    return out


def layer_metrics(spans, units: int, traced_wall_s: float) -> dict:
    """Per-layer metrics from the spans of ``units`` traced workload units.

    Times and counts are per unit (totals divided by ``units``); latency
    percentiles pool every call.  ``traced_wall_s`` is the harness-measured
    wall time of the traced operations, which the layers' self times must
    add up to.
    """
    self_s = self_times(spans)
    layers = [layer_of(spans, i) for i in range(len(spans))]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        key = f"{layers[i]}.{s.name.split('.', 1)[1]}" \
            if s.name.startswith(KERNEL_LAYER) else s.name
        by_name.setdefault(key, []).append(i)

    def calls(key):
        return len(by_name.get(key, ()))

    def total_self(key):
        return sum(self_s[i] for i in by_name.get(key, ()))

    def per_unit(value):
        return value / units

    prox = [spans[i].end - spans[i].start for i in by_name.get("flow.prox_step", ())]
    heat_steps = by_name.get("heat.heat_step", ())
    factored = {spans[i].parent for i in by_name.get("heat.lu_factor", ())}
    record_parents = {i for i, s in enumerate(spans)
                      if s.name in ("flow.run_flow", "flow.run_linear_flow")}
    record_s = sum(self_s[i] for i, s in enumerate(spans)
                   if s.parent in record_parents and s.name in (
                       "heat.metric_norm_sq", "flow.energy",
                       "moments.moment_weight_row"))
    flow_orders = [spans[i].size for i in by_name.get("flow.lu_factor", ())]
    assembled = [spans[i].size for i in by_name.get("heat.assemble", ())]

    m = {
        "cli.initial_state_s": per_unit(total_self("cli.initial_state")),
        "cli.write_s": per_unit(total_self("cli.write")),
        "cli.bytes_written": per_unit(sum(spans[i].size
                                          for i in by_name.get("cli.write", ()))),
    }
    m.update(_latency(prox, "flow.prox_step", units))
    m.update({
        "flow.prox_step_self_s": per_unit(total_self("flow.prox_step")),
        "flow.prox_step_failures": per_unit(sum(
            spans[i].error for i in by_name.get("flow.prox_step", ()))),
        "flow.lu_factor_per_step": (calls("flow.lu_factor") / len(prox)
                                    if prox else 0.0),
        "flow.lu_factor_s": per_unit(total_self("flow.lu_factor")),
        "flow.lu_solve_s": per_unit(total_self("flow.lu_solve")),
        "flow.lu_factor_share": (total_self("flow.lu_factor") / traced_wall_s
                                 if traced_wall_s > 0 else 0.0),
        "flow.lu_gflop_computed": per_unit(sum(2.0 * k ** 3 / 3.0
                                               for k in flow_orders) / 1e9),
        "flow.kkt_mib_computed": per_unit(sum(8.0 * k ** 2
                                              for k in flow_orders) / 2 ** 20),
        "flow.record_s": per_unit(record_s),
        "heat.assemble_calls": per_unit(calls("heat.assemble")),
        "heat.assemble_s": per_unit(total_self("heat.assemble")),
        "heat.metric_mib_computed": per_unit(sum(8.0 * k ** 2
                                                 for k in assembled) / 2 ** 20),
        "heat.eigensystem_s": per_unit(total_self("heat.eigensystem")),
        "heat.eigh_s": per_unit(total_self("heat.eigh")),
    })
    m.update(_latency([spans[i].end - spans[i].start for i in heat_steps],
                      "heat.heat_step", units))
    m.update({
        "heat.step_factor_hit_ratio": (
            sum(i not in factored for i in heat_steps) / len(heat_steps)
            if heat_steps else 0.0),
        "heat.metric_norm_sq_calls": per_unit(calls("heat.metric_norm_sq")),
        "heat.metric_norm_sq_s": per_unit(total_self("heat.metric_norm_sq")),
        "suite.identity_suite_s": per_unit(total_self("suite.identity_suite")),
        "moments.centered_primitive_s": per_unit(total_self("moments.centered_primitive")),
        "moments.moment_s": per_unit(total_self("moments.moment")),
        "moments.centered_tail_integral_s": per_unit(
            total_self("moments.centered_tail_integral")),
        "moments.polynomial_with_moments_s": per_unit(
            total_self("moments.polynomial_with_moments")),
        "grid.poly_mul_calls": per_unit(calls("grid.poly_mul")),
        "grid.poly_mul_s": per_unit(total_self("grid.poly_mul")),
        "grid.definite_integral_s": per_unit(total_self("grid.definite_integral")),
        "dual.dual_inner_s": per_unit(total_self("dual.dual_inner")),
        "heat.integration_by_parts_residual_s": per_unit(
            total_self("heat.integration_by_parts_residual")),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_unit(sum(
            value for value, owner in zip(self_s, layers) if owner == layer))
    m["trace.self_time_coverage"] = (sum(self_s) / traced_wall_s
                                     if traced_wall_s > 0 else 0.0)
    return m
