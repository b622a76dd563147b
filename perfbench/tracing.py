"""Span tracing around the public entry points of every ``qcond`` module.

``Tracer.install()`` replaces each public function of the layers below, and
each public method and constructor of their public classes, with a wrapper
that records one span per call: name, start, end, parent span, receiver
object and the current operation id. The program itself is not modified;
the wrappers are swapped into the modules' namespaces, so calls between
``qcond`` modules are traced too. Spans are kept in flat arrays in memory
and written out once, when the run ends.

``layer_metrics`` turns the spans into the per-layer counts and self times
named in ``BENCHMARK.json`` (plus a few that only some workloads reach).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "effects", "channels", "instruments", "measurement", "rand",
          "scenario", "checks", "cli")

# Private entry points that are traced anyway: the partial-trace readout is
# the measurement layer's core and has no public name of its own.
EXTRA_METHODS = {("measurement", "MeasurementModel"): ("_readout",)}

KEEP_RESULTS = {"checks.run_checks"}

SPECTRAL = {"linalg.is_psd", "linalg.is_effect_matrix", "linalg.clipped_eigh"}
CTOR_CLASSES = {
    "effects": ("State", "Effect", "Observable", "BiObservable", "StochasticMatrix"),
    "channels": ("Operation", "Channel", "LinearMap"),
    "instruments": ("Instrument", "BiInstrument", "HolevoSpec"),
}


class Tracer:
    """Records nested spans for calls into ``qcond``; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.receivers = array("q")
        self.op_ids = array("l")
        self.op = -1
        self.kept: list = []
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name: str, method: bool):
        name_id = self._name_index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.receivers.append(id(args[0]) if method and args else 0)
            self.op_ids.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if keep:
                self.kept.append(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public entry point of every layer module."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qcond.{layer}")
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif callable(value):
                    replaced[id(value)] = self._wrap(value, f"{layer}.{attr}", method=False)
        # Swap wrapped functions into every namespace that imported them by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcond" and not mod_name.startswith("qcond."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])

    def _wrap_class(self, layer: str, cls) -> None:
        extra = EXTRA_METHODS.get((layer, cls.__name__), ())
        for attr, value in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_") and attr not in extra:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self._wrap(value.__func__, name, method=False)))
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, name, method=True))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_ids, dtype=np.int64),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int64),
            "receiver": np.array(self.receivers, dtype=np.int64),
            "op": np.array(self.op_ids, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so a parent's children are disjoint
    sub-intervals of it and the covered time is their summed duration.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def counted_calls(in_group: np.ndarray, parent: np.ndarray, receiver: np.ndarray) -> int:
    """Spans in a group, not counting a method that the same object's method
    in the same group called (``Channel.__init__`` -> ``Operation.__init__``,
    ``apply`` -> ``apply_matrix``)."""
    p = np.where(parent >= 0, parent, 0)
    chained = (parent >= 0) & in_group[p] & (receiver != 0) & (receiver[p] == receiver)
    return int(np.count_nonzero(in_group & ~chained))


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    name_id, parent, receiver = spans["name_id"], spans["parent"], spans["receiver"]
    own = self_times(spans["start"], spans["end"], parent)
    duration = spans["end"] - spans["start"]
    p = np.where(parent >= 0, parent, 0)

    def spans_named(pred) -> np.ndarray:
        return np.array([pred(n) for n in names], dtype=bool)[name_id]

    def in_layer(layer: str) -> np.ndarray:
        return spans_named(lambda n: n.split(".", 1)[0] == layer)

    def named(*methods: str) -> np.ndarray:
        return spans_named(lambda n: n.rsplit(".", 1)[-1] in methods)

    def seconds(m: np.ndarray) -> float:
        return float(own[m].sum())

    def calls(m: np.ndarray) -> int:
        return counted_calls(m, parent, receiver)

    out: dict[str, float] = {}
    out["linalg.spectral_checks"] = calls(spans_named(SPECTRAL.__contains__))
    out["linalg.s"] = seconds(in_layer("linalg"))
    for layer, classes in CTOR_CLASSES.items():
        ctors = {f"{layer}.{c}.__init__" for c in classes}
        ctor = spans_named(ctors.__contains__)
        out[f"{layer}.ctor_calls"] = calls(ctor)
        out[f"{layer}.ctor_s"] = seconds(ctor)
        if layer != "channels":
            out[f"{layer}.ops_s"] = seconds(in_layer(layer) & ~ctor)
    in_channels = in_layer("channels")
    apply = in_channels & named("apply", "apply_matrix")
    dual = in_channels & named("dual_apply", "dual_matrix")
    superop = in_channels & named("superoperator")
    out["channels.apply_calls"] = calls(apply)
    out["channels.dual_calls"] = calls(dual)
    out["channels.apply_dual_s"] = seconds(apply | dual)
    out["channels.superop_calls"] = calls(superop)
    out["channels.superop_s"] = seconds(superop)
    out["channels.map_deviation_s"] = seconds(spans_named("channels.map_deviation".__eq__))
    readout = spans_named("measurement.MeasurementModel._readout".__eq__)
    out["measurement.readout_calls"] = calls(readout)
    out["measurement.readout_s"] = seconds(readout)
    rand = in_layer("rand")
    out["rand.calls"] = calls(rand)
    out["rand.s"] = seconds(rand)
    # Scenario self time goes to the save or load call it happened under.
    in_scenario = in_layer("scenario")
    entry = np.arange(len(parent))
    for i in np.flatnonzero(in_scenario):
        if parent[i] >= 0 and in_scenario[parent[i]]:
            entry[i] = entry[parent[i]]
    for verb in ("save", "load"):
        under = in_scenario & spans_named(f"scenario.{verb}_scenario".__eq__)[entry]
        out[f"scenario.{verb}_s"] = seconds(under)
    cli_main = spans_named("cli.main".__eq__)
    checks_in_cli = spans_named("checks.run_checks".__eq__) & (parent >= 0) & cli_main[p]
    out["cli.self_s"] = float(duration[cli_main].sum() - duration[checks_in_cli].sum())
    return out


def identity_seconds(reports: list, identities) -> dict[str, float]:
    """``checks.<identity>.s`` summed over the kept ``run_checks`` reports."""
    out = {f"checks.{name}.s": 0.0 for name in identities}
    for report in reports:
        for result in report.results:
            out[f"checks.{result.name}.s"] += result.elapsed_seconds
    return out
