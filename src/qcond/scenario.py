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
``channel``, ``instrument``, ``measurement_model``; observables and
instruments on one outcome axis only, so a family on a grid of outcome axes
is refused by :func:`save_scenario`, and nested outcome lists by
:func:`load_scenario`. Measurement models
reference their interaction instrument and probe observable by name; every
reference must resolve inside the same file. Each type's format is written
once, in the table ``_TYPES`` (type -> scenario group, class, matrix field,
converter, reader, saved fields), which :func:`load_scenario` and
:func:`save_scenario` both follow. Both hold at most one object's nested
lists at a time: saving encodes the objects one by one from their arrays,
and loading converts each object's matrices to arrays once, as it is
parsed.
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
    # OverflowError: an integer entry beyond the largest double
    except (TypeError, ValueError, OverflowError) as exc:
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
    """A JSON object's members as a dict; a key given twice raises.

    Runs as each JSON object of a file closes, innermost first. An object
    payload of a known type gets its matrix field converted to arrays here,
    once, so the parse tree never holds more than one object's nested lists.
    A field that fails to convert holds its :class:`ScenarioError` instead,
    which :func:`load_scenario` raises, naming the object."""
    members: dict[str, Any] = {}
    for key, value in pairs:
        if key in members:
            raise ScenarioError(f"key {key!r} appears twice in one JSON object")
        members[key] = value
    kind = members.get("type")
    if isinstance(kind, str) and kind in _TYPES:
        _, _, key, convert, *_ = _TYPES[kind]
        if key is not None:
            try:
                members[key] = convert(members)
            except ScenarioError as exc:
                members[key] = exc
    return members


def _matrix(payload: dict) -> np.ndarray:
    return matrix_from_json(payload.get("matrix"))


def _kraus(payload: dict) -> tuple[np.ndarray, ...]:
    kraus = payload.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise ScenarioError("expected a nonempty 'kraus' list")
    return tuple(matrix_from_json(k) for k in kraus)


def _labeled(payload: dict, kind: str, key: str) -> list:
    """The member list ``key`` of a labeled family, which needs an
    ``outcomes`` list too: one outcome axis, so labels and no nested lists."""
    members = payload.get(key)
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, list) or not isinstance(members, list):
        raise ScenarioError(f"{kind} needs 'outcomes' and {key!r} lists")
    if any(isinstance(label, list) for label in outcomes):
        raise ScenarioError(f"{kind} 'outcomes' must be a list of labels, not of lists")
    return members


def _effects(payload: dict) -> tuple[np.ndarray, ...]:
    return tuple(matrix_from_json(e) for e in _labeled(payload, "observable", "effects"))


def _operations(payload: dict) -> tuple[tuple[np.ndarray, ...], ...]:
    operations = _labeled(payload, "instrument", "operations")
    if not all(isinstance(op_kraus, list) for op_kraus in operations):
        raise ScenarioError("each instrument operation must be a list of Kraus matrices")
    return tuple(tuple(matrix_from_json(k) for k in kraus) for kraus in operations)


def _read(cls: type, matrices, payload: dict, scn: Scenario):
    return cls(matrices, scn.atol)


def _read_observable(cls: type, effects: tuple, payload: dict, scn: Scenario) -> Observable:
    return cls(tuple(payload["outcomes"]), effects, scn.atol)


def _read_instrument(cls: type, operations: tuple, payload: dict, scn: Scenario) -> Instrument:
    return cls._from_kraus(tuple(payload["outcomes"]), map(_kraus_stack, operations), scn.atol)


def _read_model(cls: type, _, payload: dict, scn: Scenario) -> MeasurementModel:
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
    return {"matrix": value.matrix}


def _kraus_fields(op: Operation, *_) -> dict[str, Any]:
    return {"kraus": op.kraus_stack}


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


# type -> (Scenario group, class, matrix field, convert, read, saved fields):
# the one statement of the file format. ``convert(payload)`` turns the
# payload's matrix field into arrays as the file is parsed;
# ``read(cls, matrices, payload, scn)`` builds an object from them at the
# tolerance of the scenario loaded so far; ``fields(value, scn, name)`` is
# what follows its "type" in the file, with matrices as arrays. Objects save
# group by group in table order, each as the last type of its group whose
# class it is an instance of (a Channel is an Operation too).
_TYPES: dict[str, tuple] = {
    "state": ("states", State, "matrix", _matrix, _read, _matrix_fields),
    "effect": ("effects", Effect, "matrix", _matrix, _read, _matrix_fields),
    "observable": ("observables", Observable, "effects", _effects, _read_observable, lambda obs, *_: {
        "outcomes": list(obs.outcomes), "effects": obs.effect_stack}),
    "operation": ("operations", Operation, "kraus", _kraus, _read, _kraus_fields),
    "channel": ("operations", Channel, "kraus", _kraus, _read, _kraus_fields),
    "instrument": ("instruments", Instrument, "operations", _operations, _read_instrument, lambda ins, *_: {
        "outcomes": list(ins.outcomes), "operations": [op.kraus_stack for op in ins.ops]}),
    "measurement_model": ("models", MeasurementModel, None, None, _read_model, _model_fields),
}
_GROUPS = tuple(dict.fromkeys(group for group, *_ in _TYPES.values()))


def load_scenario(path: str | Path, atol: float | None = None) -> Scenario:
    """Load and fully validate a scenario file.

    ``atol`` overrides the file's recorded tolerance; failures carry the
    offending object's name and the violated invariant. A key repeated in
    any JSON object of the file, an object name included, is an error.
    Each object's matrices become arrays once, as soon as the object is
    parsed.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ScenarioError:
        raise
    # ValueError: JSON syntax, UTF-8 decoding or an integer of too many
    # digits; RecursionError: arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as exc:
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
        group, cls, key, _, read, _ = _TYPES[kind]
        try:
            matrices = obj.get(key)
            if isinstance(matrices, ScenarioError):  # failed as the file was parsed
                raise matrices
            getattr(scn, group)[name] = read(cls, matrices, obj, scn)
        except ValueError as exc:  # InvariantViolation and ScenarioError included
            raise ScenarioError(str(exc), obj=name) from None
    return scn


def _matrix_lists(value: Any) -> list:
    """The JSON encoder's fallback: arrays as :func:`matrix_to_json` lists."""
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json.dumps(..., allow_nan=False) with array fields; without ``indent`` it
# takes the C encoder
_encode = json.JSONEncoder(allow_nan=False, default=_matrix_lists).encode


def save_scenario(scn: Scenario, path: str | Path) -> None:
    """Write a scenario back to JSON; inverse of :func:`load_scenario`.

    Every instrument member is a Kraus-form operation, so every instrument
    serializes as one Kraus list per outcome. The file is one line of
    compact JSON, the bytes of ``json.dumps`` on the whole payload, but each
    object is encoded on its own, so only one object's nested lists exist
    at a time. A tolerance or seed that :func:`load_scenario` would reject,
    a name used twice, an object that its group cannot hold, a family on a
    grid of outcome axes, a batch and a measurement model whose parts are not named
    objects raise
    :class:`ScenarioError`; every object is encoded before the file is
    opened, so a failing save writes nothing.
    """
    head: dict[str, Any] = {"tolerance": _tolerance(scn.atol)}
    if scn.seed is not None:
        head["seed"] = _integer(scn.seed, "seed")
    entries: dict[Any, dict[str, Any]] = {}
    for group in _GROUPS:
        for name, value in getattr(scn, group).items():
            kinds = [k for k, (g, cls, *_) in _TYPES.items() if g == group and isinstance(value, cls)]
            if not kinds:
                raise ScenarioError(f"the {group!r} group cannot hold type {type(value).__name__}", obj=name)
            if name in entries:
                raise ScenarioError("name used by another object of the scenario", obj=name)
            if len(getattr(value, "axes", ())) > 1:  # the file format has one outcome axis
                raise ScenarioError(f"{kinds[-1]} on a grid of outcome axes: a file holds one axis", obj=name)
            if getattr(value, "_batch", ()):  # and one object per entry
                raise ScenarioError(f"{kinds[-1]} holding a batch: a file holds single objects", obj=name)
            *_, fields = _TYPES[kinds[-1]]
            entries[name] = {"type": kinds[-1], **fields(value, scn, name)}
    # '{"tolerance": ..., "objects": {', then '"name": {...}' for each object:
    # the one-object map without its braces
    opening = _encode({**head, "objects": {}})[:-2]
    pieces = [_encode({name: entry})[1:-1] for name, entry in entries.items()]
    with open(path, "w", encoding="utf-8") as out:
        out.write(opening)
        for i, piece in enumerate(pieces):
            out.write(", " if i else "")
            out.write(piece)
        out.write("}}\n")
