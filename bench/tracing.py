"""Span tracing around the public functions of each irsbeam module.

The traced run wraps module-level names at run time, in every irsbeam module
that binds them (``scan`` imports the kernels by name, ``cli`` the sweeps),
and restores them afterwards; nothing in ``src/`` changes. A span records
its name, start, end, parent span and op id. A name that no longer exists
is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# role -> (home module, wrapped names). The model module's types and GainMap
# validation run inside scan calls and so count in scan self time.
ROLES = {
    "scenario.load": ("scenario", ("load_scenario", "scenario_from_dict")),
    "farfield.design": ("farfield", ("far_optimal_phases", "far_dam_design")),
    "farfield.kernel": ("farfield", ("far_beam_gain_profile",)),
    "nearfield.design": ("nearfield", ("near_optimal_phases", "near_dam_design")),
    "nearfield.kernel": ("nearfield", ("near_gain_row",)),
    "scan.sweep": ("scan", ("angle_sweep", "subcarrier_sweep_far", "subcarrier_sweep_near",
                            "location_heatmap")),
    "scan.metrics": ("scan", ("squint_metrics",)),
    "cli.dispatch": ("cli", ("main", "run")),
    "cli.write": ("cli", ("write_gain_map",)),
    "cli.read": ("cli", ("read_gain_map_csv",)),
}


def _kernel_evals(arg, result) -> int:
    """Element evaluations: output points times elements (F x N x R far, N x R near)."""
    return int(np.size(result)) * len(arg("phases"))


def _grid_points(arg, result) -> int:
    return int(result.values.size)


def _bytes_written(arg, result) -> int:
    return os.path.getsize(arg("path"))


COUNTERS = {
    "farfield.kernel": _kernel_evals,
    "nearfield.kernel": _kernel_evals,
    "scan.sweep": _grid_points,
    "cli.write": _bytes_written,
}


@dataclass
class Span:
    role: str
    name: str
    start: float
    parent: int | None
    op_id: int
    end: float = 0.0
    count: int = 0


@dataclass
class Tracer:
    """Collects spans in memory while installed."""

    spans: list[Span] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    op_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, role: str, name: str, fn):
        counter = COUNTERS.get(role)
        position = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(role, name, perf_counter(), stack[-1] if stack else None, self.op_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter:
                def arg(param):
                    return kwargs[param] if param in kwargs else args[position[param]]

                try:
                    span.count = counter(arg, result)
                except (TypeError, KeyError, IndexError, AttributeError, OSError):
                    self.absent.add(f"{role} count")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        for role, (home, names) in ROLES.items():
            for name in names:
                fn = getattr(sys.modules.get(f"{package.__name__}.{home}"), name, None)
                if fn is None:
                    self.absent.add(f"{home}.{name}")
                    continue
                wrapper = self._wrap(role, name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def layer_metrics(spans: list[Span], passes: int) -> dict:
    """Per-layer metrics per pass from the spans of ``passes`` traced passes.

    A role's time counts each outermost span of the role once (so a nested
    ``scenario_from_dict`` inside ``load_scenario`` is not counted twice); a
    self time subtracts the time of child spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def outermost(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if spans[p].role == s.role:
                return False
            p = spans[p].parent
        return True

    time = dict.fromkeys(ROLES, 0.0)
    self_time = dict.fromkeys(ROLES, 0.0)
    calls = dict.fromkeys(ROLES, 0)
    count = dict.fromkeys(ROLES, 0)
    for i, s in enumerate(spans):
        self_time[s.role] += (s.end - s.start) - child_time[i]
        if outermost(s):
            time[s.role] += s.end - s.start
            calls[s.role] += 1
            count[s.role] += s.count

    def per_pass(x):
        return x / passes

    def rate(num, den):
        return num / den if den > 0 else 0.0

    return {
        "scenario.load_s": per_pass(time["scenario.load"]),
        "scenario.loads": calls["scenario.load"] // passes,
        "farfield.design_s": per_pass(time["farfield.design"]),
        "farfield.kernel_s": per_pass(time["farfield.kernel"]),
        "farfield.kernel_calls": calls["farfield.kernel"] // passes,
        "farfield.kernel_evals": count["farfield.kernel"] // passes,
        "farfield.kernel_evals_per_s": rate(count["farfield.kernel"], time["farfield.kernel"]),
        "nearfield.design_s": per_pass(time["nearfield.design"]),
        "nearfield.kernel_s": per_pass(time["nearfield.kernel"]),
        "nearfield.kernel_calls": calls["nearfield.kernel"] // passes,
        "nearfield.kernel_evals": count["nearfield.kernel"] // passes,
        "nearfield.kernel_evals_per_s": rate(count["nearfield.kernel"], time["nearfield.kernel"]),
        "scan.sweep_self_s": per_pass(self_time["scan.sweep"]),
        "scan.metrics_s": per_pass(time["scan.metrics"]),
        "scan.grid_points": count["scan.sweep"] // passes,
        "cli.dispatch_self_s": per_pass(self_time["cli.dispatch"]),
        "cli.write_s": per_pass(time["cli.write"]),
        "cli.write_bytes": count["cli.write"] // passes,
        "cli.write_mb_per_s": rate(count["cli.write"] / 1e6, time["cli.write"]),
        "cli.read_s": per_pass(time["cli.read"]),
    }

