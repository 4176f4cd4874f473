"""Per-layer spans recorded from outside geogate.

``Tracer.install`` replaces each public function in ``TARGETS`` by a
wrapper everywhere it is bound inside the ``geogate`` package: in its own
module and in every module that did ``from .x import name``. Modules are
reached through ``sys.modules`` because ``geogate.optimize`` resolves to
the function of that name, not to the module. ``uninstall`` puts every
original back.

Hamiltonian samplers are timed where the integrators call them: the
integrator wrappers wrap the ``hamiltonian`` callable they are handed, so
the stacked per-error-point sampler that a robustness scan builds inside
``geogate.fidelity`` is timed like the plain ``*_hamiltonian`` samplers.

Spans are kept in memory. Scan pool workers are forked with the wrappers
in place; each keeps its own spans and writes them to the spool directory
when it exits, and ``take`` merges them. perf_counter is the system
monotonic clock, so times from the workers and the parent compare.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import math
import multiprocessing.util
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = (
    ("geogate.paths", "sample_trajectory"),
    ("geogate.paths", "geometric_phase"),
    ("geogate.paths", "hadamard_alpha_of_beta"),
    ("geogate.pulses", "synthesize"),
    ("geogate.pulses", "drag_correct"),
    ("geogate.optimize", "objective"),
    ("geogate.optimize", "optimize"),
    ("geogate.optimize", "invert_bessel_j1"),
    ("geogate.dynamics", "evolve_lindblad"),
    ("geogate.dynamics", "evolve_schrodinger"),
    ("geogate.fidelity", "average_gate_fidelity_1q"),
    ("geogate.fidelity", "fidelity_dynamics"),
    ("geogate.fidelity", "average_gate_fidelity_2q"),
    ("geogate.fidelity", "robustness_scan"),
    ("geogate.fidelity", "gate_variants"),
    ("geogate._csv", "write_csv"),
    ("geogate.cli", "main"),
)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def span_name(module: str, attr: str) -> str:
    """``geogate._csv`` + ``write_csv`` -> ``csv.write_csv``."""
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{attr}"


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.active = False
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        self._count = 0
        self._patched = []

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "geogate" or name.startswith("geogate."))]
        for module_name, attr in TARGETS:
            original = vars(sys.modules[module_name])[attr]
            wrapper = self._wrap(original, span_name(module_name, attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is None:
                return self.call(name, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(self, name, fn, bound)

        return wrapper

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs, after=None, extra=None):
        """Run ``fn`` inside a span; ``after(span, result)`` may rename it or add counts."""
        self._adopt_fork()
        self._count += 1
        span = {"id": [self._pid, self._count],
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, **(extra or {})}
        self._stack.append(span)
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, result)
        return result

    def _adopt_fork(self):
        """In a forked pool worker: keep only its own spans and spool them at exit."""
        if os.getpid() == self._pid:
            return
        self._pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self):
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def take(self) -> list:
        """All spans recorded so far, those spooled by exited pool workers included;
        the tracer starts empty again."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.json"))):
            with open(path) as fh:
                self.spans.extend(json.load(fh))
            os.remove(path)
        spans, self.spans = self.spans, []
        return spans

    def sampler(self, hamiltonian):
        """Time a Hamiltonian sampler; its grid sets the calling integrator's step count."""
        def traced(ts):
            integrator = self._stack[-1]

            def after(span, H):
                span["name"] = f"dynamics.grid_d{H.shape[-1]}"
                span["bytes"] = H.nbytes
                integrator["steps"] = integrator.get("steps", 0) + (len(ts) - 1) // 2

            return self.call("dynamics.grid", hamiltonian, (ts,), {}, after)

        return traced


# ---------------------------------------------------------------------------
# hooks: extra counts at particular boundaries

def _integrator(kind, state_arg, matrix_axes):
    def hook(tracer, name, fn, bound):
        shape = np.shape(bound.arguments[state_arg])
        axes = 2 if matrix_axes or bound.arguments.get("matrix") else 1
        bound.arguments["hamiltonian"] = tracer.sampler(bound.arguments["hamiltonian"])
        extra = {"matrices": math.prod(shape[:-axes])}
        return tracer.call(f"dynamics.{kind}_d{shape[-1]}", fn, bound.args, bound.kwargs,
                           extra=extra)
    return hook


def _objective(tracer, name, fn, bound):
    def after(span, result):
        span["finite"] = int(math.isfinite(result))
    return tracer.call(name, fn, bound.args, bound.kwargs, after)


def _robustness_scan(tracer, name, fn, bound):
    values = bound.arguments["values"]
    points = (41 if values is None else len(values)) * len(bound.arguments["variants"])
    cpu0 = cpu_seconds()

    def after(span, result):
        span["cpu_s"] = cpu_seconds() - cpu0
    return tracer.call(name, fn, bound.args, bound.kwargs, after, {"points": points})


def _write_csv(tracer, name, fn, bound):
    path = bound.arguments["path"]

    def after(span, result):
        span["bytes"] = os.path.getsize(path)
    return tracer.call(name, fn, bound.args, bound.kwargs, after)


_HOOKS = {
    "dynamics.evolve_lindblad": _integrator("lindblad", "rho0", True),
    "dynamics.evolve_schrodinger": _integrator("schrodinger", "psi0", False),
    "optimize.objective": _objective,
    "fidelity.robustness_scan": _robustness_scan,
    "csv.write_csv": _write_csv,
}


# ---------------------------------------------------------------------------
# per-layer metrics

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(spans) -> dict:
    """Totals per span name: calls, wall, self time and the recorded counts."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[tuple(s["parent"])].append((s["t0"], s["t1"]))
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        wall = s["t1"] - s["t0"]
        a["calls"] += 1
        a["wall_s"] += wall
        a["self_s"] += wall - _covered(children[tuple(s["id"])], s["t0"], s["t1"])
        for key in ("steps", "bytes", "finite", "points", "cpu_s"):
            a[key] += s.get(key, 0)
        a["matrix_steps"] += s.get("steps", 0) * s.get("matrices", 0)
    return agg


def _get(name, key):
    return lambda agg: agg[name][key] if name in agg else 0.0


def _per(name, num, den):
    """agg[name][num] / agg[name][den], 0 where the layer did no work."""
    return lambda agg: agg[name][num] / agg[name][den] if agg[name][den] > 0 else 0.0


# name, unit, better, value from the aggregate of one round
LAYER_METRICS = [
    ("paths.sample_trajectory.calls", "count", "lower", _get("paths.sample_trajectory", "calls")),
    ("paths.sample_trajectory.self_s", "s", "lower", _get("paths.sample_trajectory", "self_s")),
    ("paths.geometric_phase.self_s", "s", "lower", _get("paths.geometric_phase", "self_s")),
    ("paths.hadamard_alpha_of_beta.self_s", "s", "lower",
     _get("paths.hadamard_alpha_of_beta", "self_s")),
    ("pulses.synthesize.calls", "count", "lower", _get("pulses.synthesize", "calls")),
    ("pulses.synthesize.self_s", "s", "lower", _get("pulses.synthesize", "self_s")),
    ("pulses.drag_correct.self_s", "s", "lower", _get("pulses.drag_correct", "self_s")),
    ("optimize.objective.evals", "count", "lower", _get("optimize.objective", "calls")),
    ("optimize.objective.evals_per_s", "1/s", "higher",
     _per("optimize.objective", "calls", "wall_s")),
    ("optimize.objective.accepted_ratio", "ratio", "higher",
     _per("optimize.objective", "finite", "calls")),
    ("optimize.optimize.self_s", "s", "lower", _get("optimize.optimize", "self_s")),
    ("optimize.invert_bessel_j1.self_s", "s", "lower", _get("optimize.invert_bessel_j1", "self_s")),
]
for _d in (2, 3, 9):
    LAYER_METRICS.append((f"dynamics.grid_d{_d}.self_s", "s", "lower",
                          _get(f"dynamics.grid_d{_d}", "self_s")))
LAYER_METRICS.append(("dynamics.grid_d9.bytes", "bytes", "lower",
                      _get("dynamics.grid_d9", "bytes")))
for _d in (2, 3, 9):
    LAYER_METRICS.append((f"dynamics.lindblad_d{_d}.steps_per_s", "1/s", "higher",
                          _per(f"dynamics.lindblad_d{_d}", "steps", "self_s")))
    LAYER_METRICS.append((f"dynamics.lindblad_d{_d}.matrix_steps", "count", "lower",
                          _get(f"dynamics.lindblad_d{_d}", "matrix_steps")))
for _d in (2, 9):
    LAYER_METRICS.append((f"dynamics.schrodinger_d{_d}.steps_per_s", "1/s", "higher",
                          _per(f"dynamics.schrodinger_d{_d}", "steps", "self_s")))
LAYER_METRICS += [
    ("fidelity.average_gate_fidelity_1q.self_s", "s", "lower",
     _get("fidelity.average_gate_fidelity_1q", "self_s")),
    ("fidelity.fidelity_dynamics.self_s", "s", "lower",
     _get("fidelity.fidelity_dynamics", "self_s")),
    ("fidelity.average_gate_fidelity_2q.self_s", "s", "lower",
     _get("fidelity.average_gate_fidelity_2q", "self_s")),
    ("fidelity.robustness_scan.points_per_s", "1/s", "higher",
     _per("fidelity.robustness_scan", "points", "wall_s")),
    ("fidelity.robustness_scan.self_s", "s", "lower", _get("fidelity.robustness_scan", "self_s")),
    ("fidelity.gate_variants.self_s", "s", "lower", _get("fidelity.gate_variants", "self_s")),
    ("fidelity.robustness_scan.cpu_s", "s", "lower", _get("fidelity.robustness_scan", "cpu_s")),
    ("csv.write_csv.self_s", "s", "lower", _get("csv.write_csv", "self_s")),
    ("csv.write_csv.bytes", "bytes", "lower", _get("csv.write_csv", "bytes")),
    ("cli.main.self_s", "s", "lower", _get("cli.main", "self_s")),
]


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one round; 0 where the round never reaches a layer."""
    agg = aggregate(spans)
    return {name: float(value(agg)) for name, _, _, value in LAYER_METRICS}
