"""Span tracer installed from outside the package, around each layer's public calls.

A layer is a module of ``treemajority``; its public functions are listed in
``LAYERS``.  ``Tracer.install`` replaces every module-namespace binding of
those functions (``dynamics.g_eval`` as well as ``update_map.g_eval``) with a
wrapper that records a span: layer name, start, end, parent span and request
id.  Spans stay in memory in flat arrays and are written out once, at exit.
A span's self time is its duration minus the time its child spans cover.

``forbid`` uses the same bindings to make named functions raise, so that an
oracle can be shown not to call the function whose answer it checks.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "dynamics", "update_map", "model", "mc")

# layer name -> (module, attribute); UpdateMap.from_params is a classmethod
LAYERS = {
    "cli.main": ("cli", "main"),
    "dynamics.find_fixed_points": ("dynamics", "find_fixed_points"),
    "dynamics.solve_threshold": ("dynamics", "solve_threshold"),
    "dynamics.iterate_dynamics": ("dynamics", "iterate_dynamics"),
    "dynamics.predict_limit": ("dynamics", "predict_limit"),
    "update_map.from_params": ("update_map", "UpdateMap.from_params"),
    "update_map.g_eval": ("update_map", "g_eval"),
    "update_map.g_prime": ("update_map", "g_prime"),
    "update_map.g_double_prime": ("update_map", "g_double_prime"),
    "update_map.g_prime_at_half": ("update_map", "g_prime_at_half"),
    "model.bernstein_weights": ("model", "bernstein_weights"),
    "model.policy_value": ("model", "policy_value"),
    "model.policy_table": ("model", "policy_table"),
    "mc.simulate_tree": ("mc", "simulate_tree"),
    "mc.estimate_g_one_step": ("mc", "estimate_g_one_step"),
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_g_eval(counts, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    if np.ndim(x) == 0:
        counts["calls_scalar"] += 1
        counts["points"] += 1
    else:
        counts["calls_array"] += 1
        counts["points"] += np.size(x)


def _count_iterate(counts, args, kwargs, result):
    counts["steps"] += len(result.values) - 1
    counts["unconverged"] += not result.converged


def _count_simulate(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    m = cfg.params.m
    counts["vertex_updates"] += cfg.replications * cfg.horizon * sum(m**d for d in range(cfg.depth))


def _count_estimate(counts, args, kwargs, result):
    counts["samples"] += int(_arg(args, kwargs, 2, "samples"))


# extra per-call counters beyond calls and self time
COUNTERS = {
    "update_map.g_eval": _count_g_eval,
    "dynamics.iterate_dynamics": _count_iterate,
    "mc.simulate_tree": _count_simulate,
    "mc.estimate_g_one_step": _count_estimate,
}


def per_layer_names() -> list:
    """Names of the per-layer metrics a traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        if layer == "update_map.g_eval":
            names += [f"{layer}.calls_scalar", f"{layer}.calls_array", f"{layer}.points"]
        else:
            names.append(f"{layer}.calls")
        names.append(f"{layer}.self_ms")
        names += {
            "dynamics.iterate_dynamics": [f"{layer}.steps", f"{layer}.unconverged"],
            "update_map.from_params": [f"{layer}.rebuild_ratio"],
            "mc.simulate_tree": [f"{layer}.vertex_updates"],
            "mc.estimate_g_one_step": [f"{layer}.samples"],
        }.get(layer, [])
    return names + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.self_sum_s"]


def _resolve(modules, module, attr):
    obj = modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class _Bindings:
    """Every module-level binding of the layer functions, so they can be swapped and restored."""

    def __init__(self, package: str):
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        self.namespaces = [importlib.import_module(package), *self.modules.values()]
        self.originals = {layer: _resolve(self.modules, *where) for layer, where in LAYERS.items()}
        self.update_map_cls = self.modules["update_map"].UpdateMap
        self.saved = []

    def replace(self, layer: str, replacement) -> None:
        if layer == "update_map.from_params":
            cls = self.update_map_cls
            self.saved.append((cls, "from_params", cls.__dict__["from_params"]))
            setattr(cls, "from_params", classmethod(replacement))
            return
        original = self.originals[layer]
        for ns in self.namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self.saved.append((ns, name, value))
                    setattr(ns, name, replacement)

    def restore(self) -> None:
        for owner, name, value in reversed(self.saved):
            setattr(owner, name, value)
        self.saved.clear()


class OracleDependenceError(RuntimeError):
    """An oracle called a function whose answer it is meant to check."""


@contextlib.contextmanager
def forbid(package: str, layers):
    """Within the block, calling any of ``layers`` raises OracleDependenceError."""
    bindings = _Bindings(package)

    def refuse(layer):
        def refused(*args, **kwargs):
            raise OracleDependenceError(f"oracle called {layer}, the function it checks")

        return refused

    for layer in layers:
        bindings.replace(layer, refuse(layer))
    try:
        yield
    finally:
        bindings.restore()


class Tracer:
    """Spans and counters of the traced rounds of one benchmark run."""

    def __init__(self, package: str):
        self.bindings = _Bindings(package)
        self.layers = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.request_id = -1
        self.counts = [defaultdict(float) for _ in self.layers]  # one dict per layer
        self.builds = defaultdict(int)  # request id -> from_params calls
        self.param_sets = defaultdict(set)  # request id -> distinct ModelParams built

    def _wrap(self, layer: str, fn):
        nid = self.layers.index(layer)
        counts = self.counts[nid]
        counter = COUNTERS.get(layer)
        start, end, name, parent, request, stack = (
            self.start, self.end, self.name, self.parent, self.request, self.stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counts["calls"] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def _wrap_from_params(self, fn):
        traced = self._wrap("update_map.from_params", fn)
        tracer = self

        def from_params(cls, params):
            tracer.builds[tracer.request_id] += 1
            tracer.param_sets[tracer.request_id].add(params)
            return traced(cls, params)

        return from_params

    def install(self) -> None:
        for layer in self.layers:
            original = self.bindings.originals[layer]
            if layer == "update_map.from_params":
                self.bindings.replace(layer, self._wrap_from_params(original.__func__))
            else:
                self.bindings.replace(layer, self._wrap(layer, original))

    def uninstall(self) -> None:
        self.bindings.restore()

    def _arrays(self):
        """start, end, name, parent, request as numpy views of the span columns."""
        floats = (np.frombuffer(col, dtype=float) for col in (self.start, self.end))
        ints = (np.frombuffer(col, dtype=np.int32) for col in (self.name, self.parent, self.request))
        return (*floats, *ints)

    def self_seconds(self, requests_per_round: int, rounds: int) -> np.ndarray:
        """Self time in seconds, shape (rounds, layers); request ids count from 0 across rounds."""
        start, end, name, parent, request = self._arrays()
        duration = end - start
        covered = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(covered, parent[child], duration[child])
        own = duration - covered
        round_of = request // requests_per_round
        keep = (round_of >= 0) & (round_of < rounds)
        out = np.zeros((rounds, len(self.layers)))
        np.add.at(out, (round_of[keep], name[keep]), own[keep])
        return out

    def rebuild_ratio(self) -> float:
        """Table builds divided by distinct parameter sets, summed over requests."""
        distinct = sum(len(s) for s in self.param_sets.values())
        return sum(self.builds.values()) / distinct if distinct else 0.0

    def write(self, path) -> None:
        start, end, name, parent, request = self._arrays()
        np.savez(path, start=start, end=end, name=name, parent=parent, request=request,
                 layers=np.array(self.layers))
