"""Spans around the program's public functions, kept in memory.

`Tracer.install` replaces every public function of the layer modules
(reservoir, amplitude, dynamics, measure, linalg, cli) at each name it is
looked up by - `nonmarkov.cli.compute_trajectory`,
`nonmarkov.linalg.hermitian_eigenvalues`, the package re-exports, ... -
with a wrapper that records one span per call: name, start, end, parent
span and the operation it belongs to, plus work counts read from the
arguments. Calls between private helpers inside a module are not seen.
Work done in sweep worker processes is not seen either: a `sweep --jobs 2`
is one `cli.cmd_sweep` span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("reservoir", "amplitude", "dynamics", "measure", "linalg", "cli")

SIGNALS = {
    "dynamics.optimal_distance_trajectory",
    "dynamics.pair_distance_trajectory",
    "dynamics.population_excited",
    "dynamics.two_qubit_distance_trajectory",
    "dynamics.concurrence_trajectories",
}
EVOLVE = {"dynamics.evolve_single", "dynamics.evolve_two_qubit"}
MAXIMA_SUMS = {
    "measure.nonmarkovianity_single",
    "measure.nonmarkovianity_from_population",
    "measure.lower_bound_two",
    "measure.lower_bound_two_from_population",
}


# Work counts read at the call: span name -> {count: f(bound arguments, result)}.
_COUNTS = {
    "reservoir.correlation": {"samples": lambda a, r: int(a["n"])},
    "amplitude.solve_volterra": {"steps": lambda a, r: a["cfg"].steps},
    "amplitude.lorentzian_closed_form": {"samples": lambda a, r: int(np.size(a["t"]))},
    "measure.find_extrema": {"samples": lambda a, r: a["sig"].values.size,
                             "intervals": lambda a, r: len(r)},
    "measure.verify_theorem": {"pairs": lambda a, r: int(a["samples"])},
    "measure.brute_force_max": {"grid_points": lambda a, r: int(a["grid_density"]) ** 4},
    "cli.cmd_sweep": {"points": lambda a, r: int(a["args"].steps)},
}
for _name in SIGNALS:
    _COUNTS[_name] = {"samples": lambda a, r: a["traj"].values.size}

# Busy-time metrics: metric -> predicate on (span name, span attributes).
_BUSY = {
    "reservoir.correlation_s": lambda n, at: n == "reservoir.correlation",
    "reservoir.correlation.ohmic_s": lambda n, at: n == "reservoir.correlation"
    and at.get("model") == "OhmicFamily",
    "reservoir.correlation.tabulated_s": lambda n, at: n == "reservoir.correlation"
    and at.get("model") == "Tabulated",
    "amplitude.solve_volterra_s": lambda n, at: n == "amplitude.solve_volterra",
    "amplitude.closed_form_s": lambda n, at: n == "amplitude.lorentzian_closed_form",
    "dynamics.signals_s": lambda n, at: n in SIGNALS,
    "dynamics.evolve_s": lambda n, at: n in EVOLVE,
    "measure.find_extrema_s": lambda n, at: n == "measure.find_extrema",
    "measure.maxima_sum_s": lambda n, at: n in MAXIMA_SUMS,
    "measure.verify_theorem_s": lambda n, at: n == "measure.verify_theorem",
    "measure.brute_force_max_s": lambda n, at: n == "measure.brute_force_max",
    "linalg.hermitian_eigenvalues_s": lambda n, at: n == "linalg.hermitian_eigenvalues",
    "linalg.trace_distance_s": lambda n, at: n == "linalg.trace_distance",
    "linalg.wootters_concurrence_s": lambda n, at: n == "linalg.wootters_concurrence",
    "cli.simulate_s": lambda n, at: n == "cli.cmd_simulate",
    "cli.measure_s": lambda n, at: n == "cli.cmd_measure",
    "cli.sweep_s": lambda n, at: n == "cli.cmd_sweep",
    "cli.verify_s": lambda n, at: n == "cli.cmd_verify",
}
for _layer in LAYERS:
    _BUSY[f"{_layer}.busy_s"] = lambda n, at, _layer=_layer: n.startswith(_layer + ".")

# Count metrics: metric -> (predicate on span name, attribute summed; None counts calls).
_TALLY = {
    "reservoir.correlation.samples": (lambda n: n == "reservoir.correlation", "samples"),
    "amplitude.solve_volterra.calls": (lambda n: n == "amplitude.solve_volterra", None),
    "amplitude.solve_volterra.steps": (lambda n: n == "amplitude.solve_volterra", "steps"),
    "amplitude.closed_form.samples": (lambda n: n == "amplitude.lorentzian_closed_form", "samples"),
    "dynamics.signals.samples": (lambda n: n in SIGNALS, "samples"),
    "dynamics.evolve.calls": (lambda n: n in EVOLVE, None),
    "measure.find_extrema.samples": (lambda n: n == "measure.find_extrema", "samples"),
    "measure.intervals": (lambda n: n == "measure.find_extrema", "intervals"),
    "measure.verify_theorem.pairs": (lambda n: n == "measure.verify_theorem", "pairs"),
    "measure.brute_force_max.grid_points": (lambda n: n == "measure.brute_force_max", "grid_points"),
    "linalg.hermitian_eigenvalues.calls": (lambda n: n == "linalg.hermitian_eigenvalues", None),
    "cli.sweep.points": (lambda n: n == "cli.cmd_sweep", "points"),
}

# Metrics the benchmark counts itself, around its calls into `cli`.
OUTPUT_COUNTS = ("cli.simulate.rows", "cli.out_bytes")

PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("busy_s", "self_s")]
    + [m for m in _BUSY if not m.endswith((".busy_s",))]
    + ["cli.simulate.self_s"]
    + list(_TALLY)
    + list(OUTPUT_COUNTS)
    + ["trace.spans", "trace.overhead_s"]
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, parent, op, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.attrs = {}


class Tracer:
    """Records spans while installed; `summarize` turns a list of them into metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "nonmarkov" and not modname.startswith("nonmarkov."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                layer = home.rpartition(".")[2]
                if not home.startswith("nonmarkov.") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, func, name):
        counts = _COUNTS.get(name)
        signature = inspect.signature(func) if counts or name == "reservoir.correlation" else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if name == "reservoir.correlation":
                    span.attrs["model"] = type(bound["model"]).__name__
                for key, count in (counts or {}).items():
                    span.attrs[key] = count(bound, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span recorded as JSON lines, one object each."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")


def summarize(spans: list[Span], first: int = 0) -> dict:
    """Per-layer busy time, self time and work counts of spans[first:].

    Busy time of a set of spans counts only the outermost ones (no ancestor
    in the same set), so nested calls are not counted twice. Self time is a
    span's duration minus the durations of its direct children.
    """
    own = spans[first:]
    child_time = [0.0] * len(own)
    for s in own:
        if s.parent is not None and s.parent >= first:
            child_time[s.parent - first] += s.end - s.start

    def ancestors(s):
        p = s.parent
        while p is not None and p >= first:
            yield spans[p]
            p = spans[p].parent

    out = {m: 0.0 for m in _BUSY}
    for metric, pred in _BUSY.items():
        for s in own:
            if pred(s.name, s.attrs) and not any(pred(a.name, a.attrs) for a in ancestors(s)):
                out[metric] += s.end - s.start
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    out["cli.simulate.self_s"] = 0.0
    for i, s in enumerate(own):
        self_time = s.end - s.start - child_time[i]
        out[s.name.partition(".")[0] + ".self_s"] += self_time
        if s.name == "cli.cmd_simulate":
            out["cli.simulate.self_s"] += self_time
    for metric, (pred, key) in _TALLY.items():
        out[metric] = sum(1 if key is None else s.attrs.get(key, 0) for s in own if pred(s.name))
    out["trace.spans"] = len(own)
    return out
