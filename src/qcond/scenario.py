"""JSON scenario files: named collections of domain objects.

File format: one top-level JSON object with optional ``tolerance`` and
``seed`` metadata and an ``objects`` map keyed by name. Every object carries
a ``type`` discriminator; names are unique in a file and across the groups
of a saved :class:`Scenario`. Complex numbers are two-element arrays
``[re, im]`` and matrices are row-major nested arrays, so files are portable
across languages. :func:`save_scenario` writes compact single-line JSON that
never contains ``NaN`` or ``Infinity``; JSON whitespace carries no meaning,
so :func:`load_scenario` reads any layout, hand-formatted files included.

Supported types: ``state``, ``effect``, ``observable``, ``operation``,
``channel``, ``instrument``, ``measurement_model``. Measurement models
reference their interaction instrument and probe observable by name; every
reference must resolve inside the same file. Each type's format is written
once, in the table ``_TYPES`` (type -> scenario group, class, reader, saved
fields), which :func:`load_scenario` and :func:`save_scenario` both follow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any

import numpy as np

from .channels import Channel, Operation, _kraus_stack
from .effects import Effect, Observable, State
from .errors import ScenarioError
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
    """Row-major nested lists of Python floats with ``[re, im]`` entries.

    A stack of matrices, ``(..., n, m)``, gives one such list per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


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
        return [name for group in _GROUPS for name in getattr(self, group)]

    def summary(self) -> dict[str, int]:
        return {
            "states": len(self.states),
            "effects": len(self.effects),
            "observables": len(self.observables),
            "operations": len(self.operations),
            "instruments": len(self.instruments),
            "measurement_models": len(self.models),
        }


def _integer(value: Any, field: str) -> int:
    """``value`` as an ``int``, rejecting any value ``int()`` would change
    (a fraction, a boolean, a string, a non-finite number)."""
    if _is_real(type(value)) and value % 1 == 0:
        return int(value)
    raise ScenarioError(f"{field} must be an integer, got {value!r}")


def _tolerance(value: Any) -> float:
    """:func:`require_tolerance`, failing with :class:`ScenarioError`."""
    try:
        return require_tolerance(value)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a key given twice raises."""
    members: dict[str, Any] = {}
    for key, value in pairs:
        if key in members:
            raise ScenarioError(f"key {key!r} appears twice in one JSON object")
        members[key] = value
    return members


def _read_matrix(cls: type, payload: dict, scn: Scenario):
    return cls(matrix_from_json(payload.get("matrix")), scn.atol)


def _read_kraus(cls: type, payload: dict, scn: Scenario) -> Operation:
    kraus = payload.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise ScenarioError("expected a nonempty 'kraus' list")
    return cls(tuple(matrix_from_json(k) for k in kraus), scn.atol)


def _labeled(payload: dict, kind: str, key: str) -> tuple[list, list]:
    """The ``outcomes`` list and the member list ``key`` of a labeled family."""
    outcomes, members = payload.get("outcomes"), payload.get(key)
    if not isinstance(outcomes, list) or not isinstance(members, list):
        raise ScenarioError(f"{kind} needs 'outcomes' and {key!r} lists")
    return outcomes, members


def _read_observable(cls: type, payload: dict, scn: Scenario) -> Observable:
    outcomes, effects = _labeled(payload, "observable", "effects")
    return cls(tuple(outcomes), tuple(matrix_from_json(e) for e in effects), scn.atol)


def _read_instrument(cls: type, payload: dict, scn: Scenario) -> Instrument:
    outcomes, operations = _labeled(payload, "instrument", "operations")
    if not all(isinstance(op_kraus, list) for op_kraus in operations):
        raise ScenarioError("each instrument operation must be a list of Kraus matrices")
    ops = tuple(Operation._unchecked(_kraus_stack([matrix_from_json(k) for k in kraus])) for kraus in operations)
    return cls(tuple(outcomes), ops, scn.atol)


def _read_model(cls: type, payload: dict, scn: Scenario) -> MeasurementModel:
    ins_name = payload.get("interaction")
    probe_name = payload.get("probe")
    if not isinstance(ins_name, str) or not isinstance(probe_name, str):
        raise ScenarioError("'interaction' and 'probe' must be object names")
    if ins_name not in scn.instruments:
        raise ScenarioError(f"references unknown instrument {ins_name!r}")
    if probe_name not in scn.observables:
        raise ScenarioError(f"references unknown observable {probe_name!r}")
    dims = [_integer(payload.get(key), key) for key in ("dim_base", "dim_probe")]
    return cls(*dims, scn.instruments[ins_name], scn.observables[probe_name])


def _matrix_fields(value, *_) -> dict[str, Any]:
    return {"matrix": matrix_to_json(value.matrix)}


def _kraus_fields(op: Operation, *_) -> dict[str, Any]:
    return {"kraus": matrix_to_json(op.kraus_stack)}


def _model_fields(model: MeasurementModel, scn: Scenario, name: str) -> dict[str, Any]:
    return {
        "dim_base": model.dim_base,
        "dim_probe": model.dim_probe,
        "interaction": _name_of(scn.instruments, model.interaction, name, "interaction instrument"),
        "probe": _name_of(scn.observables, model.probe, name, "probe observable"),
    }


def _name_of(group: dict, value: Any, owner: str, role: str) -> str:
    for name, candidate in group.items():
        if candidate is value:
            return name
    raise ScenarioError(f"{role} is not a named object of this scenario", obj=owner)


# type -> (Scenario group, class, reader, saved fields): the one statement of
# the file format. ``read(cls, payload, scn)`` builds an object at the
# tolerance of the scenario loaded so far; ``fields(value, scn, name)`` is
# what follows its "type" in the file. Objects save group by group in table
# order, each as the last type of its group whose class it is an instance of
# (a Channel is an Operation too).
_TYPES: dict[str, tuple] = {
    "state": ("states", State, _read_matrix, _matrix_fields),
    "effect": ("effects", Effect, _read_matrix, _matrix_fields),
    "observable": ("observables", Observable, _read_observable, lambda obs, *_: {
        "outcomes": list(obs.outcomes), "effects": matrix_to_json(obs.effect_stack)}),
    "operation": ("operations", Operation, _read_kraus, _kraus_fields),
    "channel": ("operations", Channel, _read_kraus, _kraus_fields),
    "instrument": ("instruments", Instrument, _read_instrument, lambda ins, *_: {
        "outcomes": list(ins.outcomes), "operations": [matrix_to_json(op.kraus_stack) for op in ins.ops]}),
    "measurement_model": ("models", MeasurementModel, _read_model, _model_fields),
}
_GROUPS = tuple(dict.fromkeys(group for group, *_ in _TYPES.values()))


def load_scenario(path: str | Path, atol: float | None = None) -> Scenario:
    """Load and fully validate a scenario file.

    ``atol`` overrides the file's recorded tolerance; failures carry the
    offending object's name and the violated invariant. A key repeated in
    any JSON object of the file, an object name included, is an error.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"could not read scenario file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must hold a JSON object")

    if atol is None:
        atol = payload.get("tolerance", DEFAULT_ATOL)
        # JSON's true and false are not numbers
        if isinstance(atol, bool) or not isinstance(atol, (int, float)):
            raise ScenarioError(f"tolerance must be a JSON number, got {atol!r}")
    tol = _tolerance(atol)
    seed = payload.get("seed")
    if seed is not None:
        seed = _integer(seed, "seed")

    objects = payload.get("objects", {})
    if not isinstance(objects, dict):
        raise ScenarioError("'objects' must be a name-keyed map")

    scn = Scenario(atol=tol, seed=seed)
    # file order, except that measurement models, which name other objects, come last
    in_order = sorted(
        objects.items(), key=lambda item: isinstance(item[1], dict) and item[1].get("type") == "measurement_model"
    )
    for name, obj in in_order:
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScenarioError("object payload needs a 'type' discriminator", obj=name)
        kind = obj["type"]
        if not isinstance(kind, str) or kind not in _TYPES:
            raise ScenarioError(f"unknown object type {kind!r}", obj=name)
        group, cls, read, _ = _TYPES[kind]
        try:
            getattr(scn, group)[name] = read(cls, obj, scn)
        except ValueError as exc:  # InvariantViolation and ScenarioError included
            raise ScenarioError(str(exc), obj=name) from None
    return scn


def save_scenario(scn: Scenario, path: str | Path) -> None:
    """Write a scenario back to JSON; inverse of :func:`load_scenario`.

    Every instrument member is a Kraus-form operation, so every instrument
    serializes as one Kraus list per outcome. The file is one line of
    compact JSON. A tolerance or seed that :func:`load_scenario` would
    reject, a name used twice and an object that its group cannot hold
    raise :class:`ScenarioError` before anything is written.
    """
    payload: dict[str, Any] = {"tolerance": _tolerance(scn.atol)}
    if scn.seed is not None:
        payload["seed"] = _integer(scn.seed, "seed")
    objects: dict[str, Any] = {}
    for group in _GROUPS:
        for name, value in getattr(scn, group).items():
            kinds = [k for k, (g, cls, *_) in _TYPES.items() if g == group and isinstance(value, cls)]
            if not kinds:
                raise ScenarioError(f"the {group!r} group cannot hold type {type(value).__name__}", obj=name)
            if name in objects:
                raise ScenarioError("name used by another object of the scenario", obj=name)
            *_, fields = _TYPES[kinds[-1]]
            objects[name] = {"type": kinds[-1], **fields(value, scn, name)}
    payload["objects"] = objects
    # without ``indent`` json.dumps takes its C encoder
    Path(path).write_text(json.dumps(payload, allow_nan=False) + "\n", encoding="utf-8")
