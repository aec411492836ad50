"""Per-layer tracing from outside the package.

Every public function of each torusbundles module is replaced, in every
module namespace that holds it, by a wrapper that records a span: calls,
total time and self time (the span minus the spans it opened).  The
layers are the modules.  numpy.linalg.det and lstsq are counted while a
solver_explorer span is open.  Nothing inside src/ is changed; the
wrappers are installed only for a traced run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "solver_explorer", "real_structures", "complex_structures", "lattice_core", "_rational")
HOLDERS = ("torusbundles",) + tuple(f"torusbundles.{name}" for name in LAYERS)
METHODS = (("solver_explorer", "ConstraintSystem", ("equality_stack", "residual_pair")),)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.linalg = defaultdict(int)
        self.connect_ok = 0
        self.vertices = 0
        self._stack = []  # [child time] per open span
        self._solver_open = 0
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _span(self, layer, key, fn, post=None, key_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = key if key_of is None else key_of(key, args, kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            if layer == "solver_explorer":
                tracer._solver_open += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._stack.pop()
                if layer == "solver_explorer":
                    tracer._solver_open -= 1
                own = dur - frame[0]
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += own
                tracer.layer_self[layer] += own
                if tracer._stack:
                    tracer._stack[-1][0] += dur
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_linalg(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._solver_open:
                tracer.linalg[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_connect(self, result):
        self.connect_ok += int(bool(result.success))
        self.vertices += len(result.points)

    # -- installation --------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        holders = [importlib.import_module(name) for name in HOLDERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"torusbundles.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                post = self._on_connect if (layer, name) == ("solver_explorer", "connect") else None
                key_of = _by_m if (layer, name) == ("lattice_core", "pfaffian_binary_form") else None
                wrapped = self._span(layer, f"{layer}.{name}", fn, post, key_of)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapped)
        for layer, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"torusbundles.{layer}"), cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                self._set(cls, meth, self._span(layer, f"{layer}.{cls_name}.{meth}", fn))
        for name in ("det", "lstsq"):
            self._set(np.linalg, name, self._count_linalg(name, getattr(np.linalg, name)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _by_m(key, args, kwargs):
    datum = args[0] if args else kwargs["datum"]
    return f"{key}.m{datum.m}"


def per_layer_metrics(tracer, ops, import_ms):
    """The per-layer metrics of BENCHMARK.json, each per op of the run."""
    per_op = lambda x: x / ops  # noqa: E731
    ms = lambda x: 1000.0 * x / ops  # noqa: E731
    se = "solver_explorer"
    connects = tracer.calls[f"{se}.connect"]
    out = {
        "cli.self_ms": (ms(tracer.layer_self["cli"]), "ms"),
        "cli.render.ms": (ms(tracer.total["cli.render"]), "ms"),
        "torusbundles.import_ms": (import_ms["torusbundles"], "ms"),
        "numpy.import_ms": (import_ms["numpy"], "ms"),
        f"{se}.solve.calls": (per_op(tracer.calls[f"{se}.solve"]), "count"),
        f"{se}.solve.self_ms": (ms(tracer.self_time[f"{se}.solve"]), "ms"),
        f"{se}.sample_solutions.self_ms": (ms(tracer.self_time[f"{se}.sample_solutions"]), "ms"),
        f"{se}.connect.calls": (per_op(connects), "count"),
        f"{se}.connect.self_ms": (ms(tracer.self_time[f"{se}.connect"]), "ms"),
        f"{se}.connect.success_ratio": (tracer.connect_ok / connects if connects else 0.0, "ratio"),
        f"{se}.connect.vertices": (per_op(tracer.vertices), "count"),
        f"{se}.linalg.det.calls": (per_op(tracer.linalg["det"]), "count"),
        f"{se}.linalg.lstsq.calls": (per_op(tracer.linalg["lstsq"]), "count"),
        f"{se}.ConstraintSystem.equality_stack.calls":
            (per_op(tracer.calls[f"{se}.ConstraintSystem.equality_stack"]), "count"),
        f"{se}.ConstraintSystem.residual_pair.calls":
            (per_op(tracer.calls[f"{se}.ConstraintSystem.residual_pair"]), "count"),
    }
    for name in ("eigensplit", "check_integral_conditions", "check_dianalytic_conditions",
                 "orbifold_data", "reconstruct_from_orbifold"):
        out[f"real_structures.{name}.self_ms"] = (ms(tracer.self_time[f"real_structures.{name}"]), "ms")
    for name in ("riemann_residual", "decompose"):
        out[f"complex_structures.{name}.self_ms"] = (ms(tracer.self_time[f"complex_structures.{name}"]), "ms")
    for m in (2, 3, 4, 5):
        key = f"lattice_core.pfaffian_binary_form.self_ms.m{m}"
        out[key] = (ms(tracer.self_time[f"lattice_core.pfaffian_binary_form.m{m}"]), "ms")
    out["lattice_core.is_nondegenerate.self_ms"] = (ms(tracer.self_time["lattice_core.is_nondegenerate"]), "ms")
    out["lattice_core.form_values.calls"] = (per_op(tracer.calls["lattice_core.form_values"]), "count")
    # metric names start with a letter, so the _rational layer reports as rational.*
    out["rational.self_ms"] = (ms(tracer.layer_self["_rational"]), "ms")
    for name in ("det", "rank", "solve", "kernel", "integer_kernel", "inverse", "rref", "frac_matrix"):
        out[f"rational.{name}.calls"] = (per_op(tracer.calls[f"_rational.{name}"]), "count")
    return out
