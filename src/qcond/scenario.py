"""JSON scenario files: named collections of domain objects.

File format: one top-level JSON object with optional ``tolerance`` and
``seed`` metadata and an ``objects`` map keyed by name. Every object carries
a ``type`` discriminator. Complex numbers are two-element arrays
``[re, im]`` and matrices are row-major nested arrays, so files are portable
across languages.

Supported types: ``state``, ``effect``, ``observable``, ``operation``,
``channel``, ``instrument``, ``measurement_model``. Measurement models
reference their interaction instrument and probe observable by name; every
reference must resolve inside the same file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any

import numpy as np

from .channels import Channel, Operation
from .effects import Effect, Observable, State
from .errors import InvariantViolation, ScenarioError
from .instruments import Instrument
from .linalg import DEFAULT_ATOL, require_tolerance
from .measurement import MeasurementModel

__all__ = [
    "Scenario",
    "load_scenario",
    "save_scenario",
    "matrix_to_json",
    "matrix_from_json",
]


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists with ``[re, im]`` entries."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _is_real(kind: type) -> bool:
    """Real numbers, Python's and numpy's, but not booleans."""
    return issubclass(kind, Real) and not issubclass(kind, (bool, np.bool_))


def matrix_from_json(data: Any) -> np.ndarray:
    """The matrix of row-major nested lists whose entries are ``[re, im]``
    pairs of two real numbers."""
    try:
        rows = [[complex(re, im) for re, im in row] for row in data]
        kinds = {type(x) for row in data for entry in row for x in entry}
        arr = np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed matrix payload: {exc}") from None
    bad = sorted(k.__name__ for k in kinds if not _is_real(k))
    if bad:
        raise ScenarioError(f"malformed matrix payload: entries must hold real numbers, got {bad}")
    if arr.ndim != 2:
        raise ScenarioError("malformed matrix payload: expected rows of [re, im] pairs")
    return arr


@dataclass
class Scenario:
    """Validated named collection of domain objects plus metadata."""

    states: dict[str, State] = field(default_factory=dict)
    effects: dict[str, Effect] = field(default_factory=dict)
    observables: dict[str, Observable] = field(default_factory=dict)
    operations: dict[str, Operation] = field(default_factory=dict)
    instruments: dict[str, Instrument] = field(default_factory=dict)
    models: dict[str, MeasurementModel] = field(default_factory=dict)
    atol: float = DEFAULT_ATOL
    seed: int | None = None

    def object_names(self) -> list[str]:
        names: list[str] = []
        for group in (self.states, self.effects, self.observables, self.operations,
                      self.instruments, self.models):
            names.extend(group)
        return names

    def summary(self) -> dict[str, int]:
        return {
            "states": len(self.states),
            "effects": len(self.effects),
            "observables": len(self.observables),
            "operations": len(self.operations),
            "instruments": len(self.instruments),
            "measurement_models": len(self.models),
        }


def _integer(value: Any, field: str, obj: str | None = None) -> int:
    """``value`` as an ``int``, rejecting any value ``int()`` would change
    (a fraction, a boolean, a string, a non-finite number)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise ScenarioError(f"{field} must be an integer, got {value!r}", obj=obj)


def _load_observable(payload: dict, atol: float) -> Observable:
    outcomes = payload.get("outcomes")
    effects = payload.get("effects")
    if not isinstance(outcomes, list) or not isinstance(effects, list):
        raise ScenarioError("observable needs 'outcomes' and 'effects' lists")
    return Observable(tuple(outcomes), tuple(matrix_from_json(e) for e in effects), atol)


def _load_kraus(payload: dict) -> tuple[np.ndarray, ...]:
    kraus = payload.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise ScenarioError("expected a nonempty 'kraus' list")
    return tuple(matrix_from_json(k) for k in kraus)


def _load_instrument(payload: dict, atol: float) -> Instrument:
    outcomes = payload.get("outcomes")
    operations = payload.get("operations")
    if not isinstance(outcomes, list) or not isinstance(operations, list):
        raise ScenarioError("instrument needs 'outcomes' and 'operations' lists")
    if not all(isinstance(op_kraus, list) for op_kraus in operations):
        raise ScenarioError("each instrument operation must be a list of Kraus matrices")
    stacks = [tuple(matrix_from_json(k) for k in op_kraus) for op_kraus in operations]
    return Instrument._from_kraus(tuple(outcomes), stacks, atol)


def load_scenario(path: str | Path, atol: float | None = None) -> Scenario:
    """Load and fully validate a scenario file.

    ``atol`` overrides the file's recorded tolerance; failures carry the
    offending object's name and the violated invariant.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"could not read scenario file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must hold a JSON object")

    if atol is None:
        atol = payload.get("tolerance", DEFAULT_ATOL)
        # JSON's true and false are not numbers
        if isinstance(atol, bool) or not isinstance(atol, (int, float)):
            raise ScenarioError(f"tolerance must be a JSON number, got {atol!r}")
    try:
        tol = require_tolerance(atol)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    seed = payload.get("seed")
    if seed is not None:
        seed = _integer(seed, "seed")

    objects = payload.get("objects", {})
    if not isinstance(objects, dict):
        raise ScenarioError("'objects' must be a name-keyed map")

    scn = Scenario(atol=tol, seed=seed)
    deferred: list[tuple[str, dict]] = []
    for name, obj in objects.items():
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScenarioError("object payload needs a 'type' discriminator", obj=name)
        kind = obj["type"]
        try:
            if kind == "state":
                scn.states[name] = State(matrix_from_json(obj.get("matrix")), tol)
            elif kind == "effect":
                scn.effects[name] = Effect(matrix_from_json(obj.get("matrix")), tol)
            elif kind == "observable":
                scn.observables[name] = _load_observable(obj, tol)
            elif kind == "operation":
                scn.operations[name] = Operation(_load_kraus(obj), tol)
            elif kind == "channel":
                scn.operations[name] = Channel(_load_kraus(obj), tol)
            elif kind == "instrument":
                scn.instruments[name] = _load_instrument(obj, tol)
            elif kind == "measurement_model":
                deferred.append((name, obj))
            else:
                raise ScenarioError(f"unknown object type {kind!r}", obj=name)
        except (InvariantViolation, ScenarioError, ValueError) as exc:
            if isinstance(exc, ScenarioError) and exc.obj is not None:
                raise
            raise ScenarioError(str(exc), obj=name) from None

    for name, obj in deferred:
        ins_name = obj.get("interaction")
        probe_name = obj.get("probe")
        if not isinstance(ins_name, str) or not isinstance(probe_name, str):
            raise ScenarioError("'interaction' and 'probe' must be object names", obj=name)
        if ins_name not in scn.instruments:
            raise ScenarioError(f"references unknown instrument {ins_name!r}", obj=name)
        if probe_name not in scn.observables:
            raise ScenarioError(f"references unknown observable {probe_name!r}", obj=name)
        try:
            scn.models[name] = MeasurementModel(
                _integer(obj.get("dim_base"), "dim_base", name),
                _integer(obj.get("dim_probe"), "dim_probe", name),
                scn.instruments[ins_name],
                scn.observables[probe_name],
            )
        except InvariantViolation as exc:
            raise ScenarioError(str(exc), obj=name) from None
    return scn


def save_scenario(scn: Scenario, path: str | Path) -> None:
    """Write a scenario back to JSON; inverse of :func:`load_scenario`.

    Every instrument member is a Kraus-form operation (tabulated maps are
    converted when an instrument admits them), so every instrument
    serializes as one Kraus list per outcome.
    """
    objects: dict[str, Any] = {}
    for name, state in scn.states.items():
        objects[name] = {"type": "state", "matrix": matrix_to_json(state.matrix)}
    for name, effect in scn.effects.items():
        objects[name] = {"type": "effect", "matrix": matrix_to_json(effect.matrix)}
    for name, obs in scn.observables.items():
        objects[name] = {
            "type": "observable",
            "outcomes": list(obs.outcomes),
            "effects": [matrix_to_json(e) for e in obs.effect_stack],
        }
    for name, op in scn.operations.items():
        objects[name] = {
            "type": "channel" if isinstance(op, Channel) else "operation",
            "kraus": [matrix_to_json(k) for k in op.kraus],
        }
    for name, ins in scn.instruments.items():
        objects[name] = {
            "type": "instrument",
            "outcomes": list(ins.outcomes),
            "operations": [[matrix_to_json(k) for k in op.kraus] for op in ins.ops],
        }
    for name, model in scn.models.items():
        ins_name = _name_of(scn.instruments, model.interaction, name, "interaction instrument")
        probe_name = _name_of(scn.observables, model.probe, name, "probe observable")
        objects[name] = {
            "type": "measurement_model",
            "dim_base": model.dim_base,
            "dim_probe": model.dim_probe,
            "interaction": ins_name,
            "probe": probe_name,
        }
    payload: dict[str, Any] = {"tolerance": scn.atol}
    if scn.seed is not None:
        payload["seed"] = scn.seed
    payload["objects"] = objects
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _name_of(group: dict, value: Any, owner: str, role: str) -> str:
    for name, candidate in group.items():
        if candidate is value:
            return name
    raise ScenarioError(f"{role} is not a named object of this scenario", obj=owner)
