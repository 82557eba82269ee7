"""In-memory spans around calls into the envarkit layers, recorded from outside.

``Tracer.install`` rebinds each listed public function, in every loaded
``envarkit`` module that holds it, to a wrapper that records a span: name,
layer, start, end, parent span and a trace id shared by every span under one
root (one benchmark cell, one CLI command, one direct call). Nothing under
``src/`` is changed. The traced passes run in one process, so every span is
in ``Tracer.spans``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# layer -> public functions wrapped in the traced run. ``cli._benchmark_task``
# is private but is the unit of work of one benchmark cell, so it starts the
# cell's own trace (see TRACE_ROOTS).
LAYER_FUNCTIONS = {
    "synth": ("generate_instance",),
    "model_core": ("stationary_covariance", "simulate", "to_reduced_form"),
    "reduced_estimation": ("center", "fit_ols", "canonical_representative"),
    "envar_optimizer": ("solve_envar",),
    "eqvar_gds": ("fit_eqvar_gds",),
    "eval_metrics": ("score", "binarize_cumulative", "centralities"),
    "formats": (
        "write_series_csv", "read_series_csv", "write_json", "read_json",
        "write_model_json", "read_model_json", "write_truth_json",
        "read_truth_json", "load_manifest",
    ),
    "cli": ("main", "_benchmark_task"),
}

# spans that start a trace of their own even when nested in another span
TRACE_ROOTS = ("cli._benchmark_task",)

# formats functions whose span records the size of the file written
WRITERS = ("write_series_csv", "write_json", "write_model_json", "write_truth_json")


def _dimension(args, result):
    """The model dimension ``p`` of a call, read from its arguments or result."""
    for obj in (*args, result):
        p = getattr(obj, "p", None)
        if isinstance(p, int):
            return p
        if isinstance(obj, dict) and isinstance(obj.get("p"), int):
            return obj["p"]
    return None


def _envar_accounting(args, solution) -> dict:
    """Step accounting of one ``solve_envar`` call from its public outputs."""
    max_steps = args[1].max_steps
    steps = [r.steps for r in solution.restarts]
    useful = []
    for r in solution.restarts:
        best = min(r.trace)
        limit = best + 1e-4 * abs(best)
        useful.append(next(i for i, v in enumerate(r.trace, start=1) if v <= limit))
    return {
        "steps": sum(steps),
        "useful_steps": sum(useful),
        "restarts_at_budget": sum(1 for s in steps if s == max_steps),
        "objective": solution.objective,
    }


class Tracer:
    """Span recorder for one process tree; spans stay in memory until written."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "pass"
        self._stack: list[dict] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._originals: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, layer: str, name: str, func):
        qualified = f"{layer}.{name}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            span_id = f"{self._pid}:{self._next_id}"
            span = {
                "id": span_id,
                "parent": parent["id"] if parent else None,
                "trace": parent["trace"] if parent and qualified not in TRACE_ROOTS else span_id,
                "name": qualified,
                "layer": layer,
                "phase": self.phase,
                "pid": self._pid,
            }
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            p = _dimension(args, result)
            if p is not None:
                span["p"] = p
            if name == "solve_envar":
                span.update(_envar_accounting(args, result))
            elif name in WRITERS:
                span["bytes"] = os.path.getsize(args[0])
            elif name == "main" and args and args[0]:
                span["command"] = args[0][0]
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in every envarkit module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("envarkit")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"envarkit.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._originals.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span id: duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
