"""Tests for JSON scenario serialization and validation."""

import json

import numpy as np
import pytest

from qcond.channels import Operation
from qcond.cli import main
from qcond.effects import Effect, Observable, State
from qcond.errors import ScenarioError
from qcond.instruments import Instrument, instrument_deviation
from qcond.measurement import MeasurementModel
from qcond.rand import random_channel, random_instrument, random_observable, random_state
from qcond.scenario import Scenario, load_scenario, matrix_from_json, matrix_to_json, save_scenario

from map_oracles import remixed
from pinned import assert_pinned


def build_scenario() -> Scenario:
    scn = Scenario(seed=7)
    scn.states["mixed"] = State.maximally_mixed(2)
    scn.states["rho"] = random_state(2, 1)
    scn.effects["half"] = Effect(np.eye(2) / 2)
    scn.observables["basis"] = Observable(
        ("x0", "x1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    )
    scn.observables["probe"] = random_observable(2, 2, 2)
    scn.operations["damp"] = random_channel(2, 2, 2, 3)
    scn.instruments["interact"] = random_instrument(2, 4, 2, 4)
    scn.models["meter"] = MeasurementModel(2, 2, scn.instruments["interact"], scn.observables["probe"])
    return scn


# a signed zero, the least subnormal, the largest double and two fractions
# with no exact binary form
_EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3)


def test_matrix_json_round_trip():
    m = np.array([[1.0 + 2.0j, 0.5], [-1.0j, 0.25]])
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)
    # bit for bit through JSON text, written as files are
    m = np.array([[complex(x, y) for y in _EXTREMES] for x in _EXTREMES])
    payload = matrix_to_json(m)
    assert {type(leaf) for leaf in np.array(payload, dtype=object).flat} == {float}
    assert matrix_from_json(json.loads(json.dumps(payload, allow_nan=False))).tobytes() == m.tobytes()
    # a stack gives the list of its matrices' payloads
    stack = np.stack([m, m.T])
    assert json.dumps(matrix_to_json(stack)) == json.dumps([matrix_to_json(x) for x in stack])


@pytest.mark.parametrize("payload", [
    [[[1, 0, 5]]],
    [[[1]]],
    [[[True, False]]],
    [[[1.0, "0"]]],
    [[[None, 0]]],
    [[1.0]],
    [["10"]],
    [[[1j, 0]]],
    [[[np.True_, 0]]],
    [[[1, 0]], [[1, 0], [0, 0]]],
])
def test_matrix_entries_must_be_pairs_of_two_real_numbers(payload):
    with pytest.raises(ScenarioError, match="malformed matrix payload"):
        matrix_from_json(payload)


def test_matrix_entries_accept_integers_and_floats():
    m = matrix_from_json([[[1, 0], [0.5, -2]], [[0, 0], [3, 1e-3]]])
    np.testing.assert_array_equal(m, np.array([[1, 0.5 - 2j], [0, 3 + 1e-3j]]))
    m = matrix_from_json([[[np.int64(1), np.float64(0.5)], [np.int32(0), np.float32(-2)]]])
    np.testing.assert_array_equal(m, np.array([[1 + 0.5j, -2j]]))


def test_save_load_round_trip(tmp_path):
    scn = build_scenario()
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert sorted(loaded.object_names()) == sorted(scn.object_names())
    np.testing.assert_array_equal(loaded.states["rho"].matrix, scn.states["rho"].matrix)
    np.testing.assert_array_equal(loaded.effects["half"].matrix, scn.effects["half"].matrix)
    for a, b in zip(loaded.observables["probe"].effects, scn.observables["probe"].effects):
        np.testing.assert_array_equal(a.matrix, b.matrix)
    for a, b in zip(loaded.operations["damp"].kraus, scn.operations["damp"].kraus):
        np.testing.assert_array_equal(a, b)
    assert loaded.models["meter"].dim_base == 2
    assert loaded.seed == 7


def test_remixed_instrument_round_trips(tmp_path):
    # an instrument given by other Kraus lists of the same maps is saved
    # and loaded as given
    scn = build_scenario()
    ins = scn.instruments["interact"]
    rng = np.random.default_rng(8)
    scn.instruments["tabulated"] = Instrument(ins.outcomes, tuple(remixed(op, rng) for op in ins.ops))
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert [len(op.kraus) for op in loaded.instruments["tabulated"].ops] == [2, 2]
    assert instrument_deviation(loaded.instruments["tabulated"], ins) < 1e-12


def test_instrument_round_trip_keeps_each_kraus_list_as_saved(tmp_path):
    # exactly-zero operators included: the loaded lists keep them
    first = Operation([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    ins = Instrument(("a", "b"), (first, Operation([np.diag([0.0, 1.0])])))
    scn = Scenario()
    scn.instruments["ins"] = ins
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    loaded = load_scenario(path).instruments["ins"]
    assert [len(op.kraus) for op in loaded.ops] == [2, 1]
    for a, b in zip(loaded.ops, ins.ops):
        assert a.kraus_stack.tobytes() == b.kraus_stack.tobytes()


def test_save_load_keeps_every_matrix_bit_for_bit(tmp_path):
    # _EXTREMES but the largest double, which no object holds: its square overflows
    k = np.array([[0.1, -0.0], [5e-324, 1 / 3]])
    scn = Scenario()
    scn.states["rho"] = State(np.array([[1 / 3, complex(5e-324, -0.0)], [complex(5e-324, 0.0), 2 / 3]]))
    scn.effects["e"] = Effect(np.array([[0.1, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 1 / 3]]))
    scn.observables["obs"] = Observable(("a", "b"), (np.diag([0.1, -0.0]), np.diag([0.9, 1.0])))
    scn.operations["op"] = Operation([k, k.T])
    scn.instruments["ins"] = Instrument(("a", "b"), (
        Operation([np.diag([1.0, -0.0])]), Operation([np.array([[-0.0, 5e-324], [0.0, 1.0]])])))
    path = tmp_path / "scn.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)

    def stacks(s):
        return [s.states["rho"].matrix, s.effects["e"].matrix, s.observables["obs"].effect_stack,
                s.operations["op"].kraus_stack, *(op.kraus_stack for op in s.instruments["ins"].ops)]

    for a, b in zip(stacks(loaded), stacks(scn), strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.signbit(loaded.operations["op"].kraus_stack.real).any()


def test_save_writes_one_line_of_compact_json(tmp_path):
    scn = Scenario()
    scn.states["mixed"] = State.maximally_mixed(2)
    path = tmp_path / "one.json"
    save_scenario(scn, path)
    assert path.read_text(encoding="utf-8") == (
        '{"tolerance": 1e-09, "objects": {"mixed": {"type": "state", '
        '"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}}}\n'
    )


@pytest.mark.parametrize("scn, field", [
    pytest.param(Scenario(atol=float("nan")), "tolerance", id="nan"),
    pytest.param(Scenario(atol=float("inf")), "tolerance", id="inf"),
    pytest.param(Scenario(atol=0.0), "tolerance", id="0.0"),
    pytest.param(Scenario(atol=-1.0), "tolerance", id="-1.0"),
    pytest.param(Scenario(seed=2.5), "seed", id="seed-2.5"),
])
def test_save_rejects_what_load_would_reject(tmp_path, scn, field):
    scn.states["mixed"] = State.maximally_mixed(2)
    path = tmp_path / "scn.json"
    with pytest.raises(ScenarioError, match=field):
        save_scenario(scn, path)
    assert not path.exists()


def test_load_rejects_an_object_name_given_twice(tmp_path, capsys):
    # json.loads alone keeps the last of two equal keys: the state would vanish
    state = '{"type": "state", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}'
    effect = '{"type": "effect", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'
    path = tmp_path / "twice.json"
    path.write_text(f'{{"objects": {{"a": {state}, "a": {effect}}}}}')
    with pytest.raises(ScenarioError, match="key 'a' appears twice"):
        load_scenario(path)
    assert main(["validate", str(path)]) == 1
    assert "key 'a' appears twice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_save_rejects_a_name_used_in_two_groups(tmp_path):
    scn = Scenario()
    scn.states["a"] = State.maximally_mixed(2)
    scn.effects["a"] = Effect(np.eye(2) / 2)
    path = tmp_path / "scn.json"
    with pytest.raises(ScenarioError, match="object 'a': name used by another object"):
        save_scenario(scn, path)
    assert not path.exists()


def test_save_rejects_an_object_its_group_cannot_hold(tmp_path):
    scn = Scenario()
    scn.states["a"] = Effect(np.eye(2) / 2)
    path = tmp_path / "scn.json"
    with pytest.raises(ScenarioError, match="object 'a': the 'states' group cannot hold type Effect"):
        save_scenario(scn, path)
    assert not path.exists()


def test_save_writes_a_numpy_integer_seed_as_a_json_integer(tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(Scenario(seed=np.int64(7)), path)
    assert json.loads(path.read_text())["seed"] == 7
    assert load_scenario(path).seed == 7


def test_save_of_loaded_scenario_is_stable(tmp_path):
    scn = build_scenario()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_scenario(scn, p1)
    save_scenario(load_scenario(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_load_maximally_mixed_example(tmp_path):
    path = tmp_path / "one.json"
    payload = {
        "objects": {
            "rho": {"type": "state", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        }
    }
    path.write_text(json.dumps(payload))
    scn = load_scenario(path)
    np.testing.assert_allclose(scn.states["rho"].matrix, np.eye(2) / 2)


def test_load_rejects_denormalized_povm(tmp_path):
    path = tmp_path / "bad.json"
    eye = matrix_to_json(np.eye(2) * 0.495)
    payload = {
        "objects": {
            "povm": {"type": "observable", "outcomes": ["a", "b"], "effects": [eye, eye]}
        }
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="normalization") as err:
        load_scenario(path)
    assert "povm" in str(err.value)


def test_load_rejects_dangling_reference(tmp_path):
    path = tmp_path / "dangling.json"
    payload = {
        "objects": {
            "meter": {
                "type": "measurement_model",
                "dim_base": 2,
                "dim_probe": 2,
                "interaction": "ghost",
                "probe": "ghost2",
            }
        }
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="unknown instrument 'ghost'"):
        load_scenario(path)


def test_load_rejects_unknown_type(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"objects": {"thing": {"type": "wormhole"}}}))
    with pytest.raises(ScenarioError, match="unknown object type"):
        load_scenario(path)


@pytest.mark.parametrize("operations", [[5], [None], ["kraus"], [[[[[1.0, 0.0]]]], {"k": 1}]])
def test_load_rejects_non_list_instrument_operations(tmp_path, operations):
    path = tmp_path / "ops.json"
    payload = {"type": "instrument", "outcomes": ["x0", "x1"][: len(operations)],
               "operations": operations}
    path.write_text(json.dumps({"objects": {"ins": payload}}))
    with pytest.raises(ScenarioError, match="object 'ins'"):
        load_scenario(path)


def test_load_rejects_object_matrix_entry(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"objects": {"rho": {"type": "state", "matrix": [[{"a": 1}]]}}}))
    with pytest.raises(ScenarioError, match="object 'rho': malformed matrix payload"):
        load_scenario(path)


@pytest.mark.parametrize("role", ["interaction", "probe"])
def test_load_rejects_non_string_model_reference(tmp_path, role):
    path = tmp_path / "model.json"
    save_scenario(build_scenario(), path)
    payload = json.loads(path.read_text())
    payload["objects"]["meter"][role] = ["interact"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="object 'meter': 'interaction' and 'probe' must be object names"):
        load_scenario(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="could not read"):
        load_scenario(path)


def test_load_rejects_bad_tolerance(tmp_path):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"tolerance": -1.0, "objects": {}}))
    with pytest.raises(ScenarioError, match="tolerance"):
        load_scenario(path)


def test_tolerance_override_allows_coarse_objects(tmp_path):
    path = tmp_path / "coarse.json"
    eye = matrix_to_json(np.eye(2) * 0.4999999)
    payload = {
        "objects": {
            "povm": {"type": "observable", "outcomes": ["a", "b"], "effects": [eye, eye]}
        }
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError):
        load_scenario(path)
    scn = load_scenario(path, atol=1e-3)
    assert "povm" in scn.observables


# True and "1e-3" are bad only as the file's field: the CLI parses --tol and
# QCOND_TOL strings before they reach the loader as ``atol``
@pytest.mark.parametrize("tol,bad_override", [
    pytest.param(float("inf"), True, id="inf"),
    pytest.param(float("nan"), True, id="nan"),
    pytest.param(0, True, id="0"),
    pytest.param("abc", True, id="abc"),
    pytest.param(True, False, id="True"),
    pytest.param("1e-3", False, id="1e-3"),
])
def test_load_rejects_nonfinite_or_nonnumeric_tolerance(tmp_path, tol, bad_override):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"tolerance": tol, "objects": {}}))
    with pytest.raises(ScenarioError, match="tolerance"):
        load_scenario(path)
    if bad_override:
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"objects": {}}))
        with pytest.raises(ScenarioError, match="tolerance"):
            load_scenario(good, atol=tol)


@pytest.mark.parametrize("seed", ["abc", [1], float("inf")])
def test_load_rejects_nonnumeric_seed(tmp_path, seed):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"seed": seed, "objects": {}}))
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(path)


@pytest.mark.parametrize("field,value", [
    ("seed", 7.9), ("seed", True), ("seed", "7"),
    ("dim_base", 2.7), ("dim_base", True), ("dim_probe", 2.5), ("dim_probe", "2"),
])
def test_load_rejects_integer_fields_that_int_would_change(tmp_path, field, value):
    path = tmp_path / "model.json"
    save_scenario(build_scenario(), path)
    payload = json.loads(path.read_text())
    target = payload if field == "seed" else payload["objects"]["meter"]
    target[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)
    target[field] = 7 if field == "seed" else 2
    path.write_text(json.dumps(payload))
    scn = load_scenario(path)
    assert (scn.seed, scn.models["meter"].dim_base, scn.models["meter"].dim_probe) == (
        payload["seed"], 2, 2)


def test_load_rejects_infinite_model_dimension(tmp_path):
    path = tmp_path / "model.json"
    save_scenario(build_scenario(), path)
    payload = json.loads(path.read_text())
    payload["objects"]["meter"]["dim_base"] = float("inf")
    path.write_text(json.dumps(payload))
    with pytest.raises(ScenarioError, match="meter"):
        load_scenario(path)


def _loaded(payload):
    """A call that loads ``payload`` from a file in the directory it is given."""
    def call(directory):
        path = directory / "scenario.json"
        path.write_text(json.dumps(payload))
        return load_scenario(path)
    return call


def _saved_with_an_unnamed_probe(directory):
    scn = Scenario()
    scn.instruments["ins"] = Instrument(("u",), (Operation([np.eye(1)]),))
    scn.models["m"] = MeasurementModel(1, 1, scn.instruments["ins"], Observable.trivial(1))
    save_scenario(scn, directory / "scenario.json")


# the one-outcome instrument of C¹, as saved
_ONE = {"type": "instrument", "outcomes": ["u"], "operations": [[[[[1.0, 0.0]]]]]}


@pytest.mark.parametrize("call, expected", [
    (lambda _: matrix_from_json([]), ScenarioError("malformed matrix payload: expected rows of [re, im] pairs")),
    (_loaded({"objects": {"c": {"type": "channel", "kraus": []}}}),
     ScenarioError("expected a nonempty 'kraus' list", obj="c")),
    (_loaded({"objects": {"i": {"type": "instrument", "outcomes": ["u"]}}}),
     ScenarioError("instrument needs 'outcomes' and 'operations' lists", obj="i")),
    (_loaded({"objects": {"i": _ONE, "m": {"type": "measurement_model", "interaction": "i", "probe": "p",
                                           "dim_base": 1, "dim_probe": 1}}}),
     ScenarioError("references unknown observable 'p'", obj="m")),
    (_saved_with_an_unnamed_probe, ScenarioError("probe observable is not a named object of this scenario", obj="m")),
    (_loaded([]), ScenarioError("scenario file must hold a JSON object")),
    (_loaded({"objects": []}), ScenarioError("'objects' must be a name-keyed map")),
    (_loaded({"objects": {"x": {"matrix": []}}}),
     ScenarioError("object payload needs a 'type' discriminator", obj="x")),
], ids=["matrix-rows", "empty-kraus", "instrument-lists", "unknown-probe", "unnamed-probe", "not-an-object",
        "objects-map", "no-type"])
def test_scenario_file_checks(call, expected, tmp_path):
    assert_pinned(lambda: call(tmp_path), expected)
