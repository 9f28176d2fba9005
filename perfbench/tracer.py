"""Span recorder that times calls into ftacs layers from outside the package.

Nothing under src/ is edited: the tracer replaces public names where their
callers look them up (module globals of ftacs.harness and ftacs.cli, the
bench's entry points in ftacs.bounds and ftacs.controller, and a few class
attributes), records one span per call, and puts every original back in
restore(). Each span is (name id, parent index, start, end); the spans of a
unit are packed into a numpy array when the unit ends, and all of them are
written out at the end of the run.

A layer is the ftacs module whose code a span runs. The one exception is
HealthProfile (defined in actuation.py): its evaluations are the scenario's
health signals, precomputed next to the reference and disturbance signals,
so they count as the "scenario" layer.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import ftacs.bounds
import ftacs.cli
import ftacs.controller
import ftacs.harness
from ftacs.actuation import HealthProfile
from ftacs.config import ControllerGains
from ftacs.estimation import SyntheticErrorProfile
from ftacs.scenario import VectorSignal

ROOT_SPAN = "bench.unit"
EXPORT_SPAN = "harness.export_trace_csv"
LOAD_SPAN = "scenario.load_scenario"
INSTANCE_SPAN = "harness.run_scenario"
POINT_SPAN = "bounds.predict"
ALLOC_SPAN = "actuation.allocation_matrix"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans: list = []  # spans of the open unit, indexed from 0
        self._chunks: list[np.ndarray] = []  # finished units, global parent indices
        self._count = 0
        self._stack = [-1]
        self.phi_calls = 0
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _wrap(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        spans, stack = self._spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) == 1:  # outside a timed unit (input preparation)
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (nid, stack[-1], t0, t1)

        return traced

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """Open a span from the bench's own code (the root of each unit)."""
        nid = self._id(name, layer)
        i = len(self._spans)
        self._spans.append(None)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._spans[i] = (nid, self._stack[-1], t0, t1)
            if len(self._stack) == 1:
                self._pack()

    def _pack(self):
        chunk = np.array(self._spans, dtype=np.float64).reshape(-1, 4)
        chunk[chunk[:, 1] >= 0, 1] += self._count
        self._chunks.append(chunk)
        self._count += len(chunk)
        self._spans.clear()

    def _patch(self, owner, attr: str, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str):
        fn = module.__dict__[attr]
        layer = fn.__module__.rpartition(".")[2]
        self._patch(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}", layer))

    def _patch_method(self, cls, attr: str, layer: str):
        orig = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(orig, property):
            new = property(self._wrap(orig.fget, name, layer), orig.fset, orig.fdel, orig.__doc__)
        else:
            new = self._wrap(orig, name, layer)
        self._patch(cls, attr, new)

    def install(self):
        """Wrap every traced name; restore() undoes it."""
        for module in (ftacs.harness, ftacs.cli):
            for attr, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("ftacs.")):
                    self._patch_function(module, attr)
        # entry points the gain sweep calls directly
        self._patch_function(ftacs.bounds, "predict")
        self._patch_function(ftacs.bounds, "robust_coefficients")
        self._patch_function(ftacs.controller, "check_gain_conditions")
        self._patch(ftacs.bounds, "phi_functions", self._counting_phi(ftacs.bounds.phi_functions))
        self._patch_method(ControllerGains, "lambda_min_K", "config")
        self._patch_method(ControllerGains, "lambda_max_K", "config")
        self._patch_method(SyntheticErrorProfile, "qtilde", "estimation")
        self._patch_method(SyntheticErrorProfile, "omega_tilde", "estimation")
        self._patch_method(VectorSignal, "__call__", "scenario")
        self._patch_method(VectorSignal, "derivative", "scenario")
        self._patch_method(HealthProfile, "__call__", "scenario")

    def _counting_phi(self, phi_functions):
        """phi_functions whose returned phi_bar (loop 1) and phi2 (loop 2)
        count their calls: one call per fixed-point iteration."""

        @functools.wraps(phi_functions)
        def counted(*args, **kwargs):
            phi1, phi2, phi_bar = phi_functions(*args, **kwargs)

            def phi2_counted(x, y=0.0):
                self.phi_calls += 1
                return phi2(x, y)

            def phi_bar_counted(x, y=0.0):
                self.phi_calls += 1
                return phi_bar(x, y)

            return phi1, phi2_counted, phi_bar_counted

        return counted

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        ok = all(owner.__dict__[attr] is orig for owner, attr, orig in self._patched)
        self._patched.clear()
        return ok

    def arrays(self):
        spans = np.concatenate(self._chunks) if self._chunks else np.empty((0, 4))
        return (spans[:, 0].astype(np.int64), spans[:, 1].astype(np.int64),
                spans[:, 2], spans[:, 3])

    def by_name(self) -> dict[str, dict]:
        """Calls, total time and self time (total minus child spans) per span name."""
        names, parents, start, end = self.arrays()
        dur = end - start
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_t, minlength=k)
        return {
            name: {"layer": self.layers[i], "calls": int(calls[i]),
                   "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path):
        names, parents, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                            name_id=names, parent=parents, start=start, end=end)


def layer_metrics(agg: dict[str, dict], phi_calls: int, units: int, steps: int,
                  export_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the traced units.

    Per-step figures divide by instance-steps, per-point figures by predict()
    calls, per-instance figures by run_scenario() calls. A layer the workload
    bypasses, or a denominator that is zero, reads 0.
    """

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer, exclude=()):
        return sum(v["self_s"] for k, v in agg.items() if v["layer"] == layer and k not in exclude)

    def layer_calls(layer):
        return sum(v["calls"] for v in agg.values() if v["layer"] == layer)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    instances = get(INSTANCE_SPAN, "calls")
    points = get(POINT_SPAN, "calls")
    builds = get(ALLOC_SPAN, "calls")
    traced_s = get(ROOT_SPAN, "total_s")
    attributed = sum(v["self_s"] for v in agg.values() if v["layer"] != "bench")
    return {
        "harness.self_us_per_step": 1e6 * ratio(layer_self("harness", (EXPORT_SPAN,)), steps),
        "harness.export_s": ratio(get(EXPORT_SPAN, "total_s"), units),
        "harness.export_mb": ratio(export_bytes / 1e6, units),
        "controller.self_us_per_step": 1e6 * ratio(layer_self("controller"), steps),
        "controller.calls_per_step": ratio(layer_calls("controller"), steps),
        "estimation.self_us_per_step": 1e6 * ratio(layer_self("estimation"), steps),
        "estimation.calls_per_step": ratio(layer_calls("estimation"), steps),
        "so3.self_us_per_step": 1e6 * ratio(layer_self("so3"), steps),
        "so3.calls_per_step": ratio(layer_calls("so3"), steps),
        "dynamics.self_us_per_step": 1e6 * ratio(layer_self("dynamics"), steps),
        "dynamics.calls_per_step": ratio(layer_calls("dynamics"), steps),
        "scenario.signal_us_per_step": 1e6 * ratio(layer_self("scenario", (LOAD_SPAN,)), steps),
        "scenario.signal_calls_per_instance": ratio(
            layer_calls("scenario") - get(LOAD_SPAN, "calls"), instances),
        "actuation.alloc_builds_per_instance": ratio(builds, instances),
        "actuation.alloc_reuse": ratio(steps, builds),
        "bounds.self_us_per_point": 1e6 * ratio(layer_self("bounds"), points),
        "bounds.iterations_per_point": ratio(phi_calls, points),
        "config.eig_calls_per_point": ratio(layer_calls("config"), points),
        "config.self_us_per_point": 1e6 * ratio(layer_self("config"), points),
        "scenario.load_s": ratio(get(LOAD_SPAN, "total_s"), units),
        "cli.self_s": ratio(layer_self("cli"), units),
        "trace.coverage_frac": ratio(attributed, traced_s),
    }
