"""CLI tests: verbs, exit codes, report determinism, env tolerance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcond.cli import main
from qcond.effects import Observable, State
from qcond.measurement import MeasurementModel
from qcond.rand import random_instrument, random_observable, random_state
from qcond.scenario import Scenario, save_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    scn = Scenario()
    scn.states["mixed"] = State.maximally_mixed(2)
    scn.states["rho"] = random_state(2, 1)
    scn.observables["basis"] = Observable(
        ("x0", "x1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    )
    scn.observables["probe"] = random_observable(2, 2, 2)
    scn.instruments["interact"] = random_instrument(2, 4, 2, 3)
    scn.models["meter"] = MeasurementModel(
        2, 2, scn.instruments["interact"], scn.observables["probe"]
    )
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    return path


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "observables: 2" in out


def test_validate_rejects_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"objects": {"s": {"type": "state", "matrix": [[[2.0, 0.0]]]}}}))
    assert main(["validate", str(path)]) == 1
    assert "unit trace" in capsys.readouterr().err


def test_check_json_deterministic(capsys):
    args = ["check", "--suite", "dual-map", "--trials", "3", "--dims", "2..3",
            "--seed", "11", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["dims"] == [2, 3]


def test_check_table_output(capsys):
    assert main(["check", "--suite", "dual-map", "--trials", "2", "--dims", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "dual-map" in out and "pass" in out


def test_check_unknown_identity(capsys):
    code = main(["check", "--suite", "no-such-check", "--trials", "1", "--dims", "2", "--seed", "0"])
    assert code == 2
    assert "unknown identity" in capsys.readouterr().err


def test_check_unknown_identity_beside_all_exits_2(capsys):
    code = main(["check", "--suite", "all,dual-mpa", "--trials", "1", "--dims", "2", "--seed", "0"])
    assert code == 2
    assert "unknown identity name(s): dual-mpa" in capsys.readouterr().err


def test_check_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    args = ["check", "--suite", "dual-map", "--trials", "2", "--dims", "2",
            "--seed", "3", "--out", str(out_path)]
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["results"][0]["name"] == "dual-map"


def test_check_unwritable_out_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    args = ["check", "--suite", "dual-map", "--trials", "1", "--dims", "2",
            "--seed", "3", "--out", str(out_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--out" in err and "Traceback" not in err
    assert not out_path.exists()


def test_distribution_table_and_json(scenario_file, capsys):
    args = ["distribution", "--scenario", str(scenario_file),
            "--observable", "basis", "--state", "mixed"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "x0" in out and "0.5" in out
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probabilities"]["x0"] == pytest.approx(0.5)
    assert payload["total"] == pytest.approx(1.0)


def test_distribution_unknown_names(scenario_file, capsys):
    assert main(["distribution", "--scenario", str(scenario_file),
                 "--observable", "nope", "--state", "mixed"]) == 2
    capsys.readouterr()
    assert main(["distribution", "--scenario", str(scenario_file),
                 "--observable", "basis", "--state", "nope"]) == 2


def test_measure_summaries(scenario_file, capsys):
    args = ["measure", "--scenario", str(scenario_file), "--model", "meter"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "pointer effect" in out
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "meter"
    total = sum(row["probability_maximally_mixed"] for row in payload["pointer_outcomes"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_measure_unknown_model(scenario_file, capsys):
    assert main(["measure", "--scenario", str(scenario_file), "--model", "ghost"]) == 2


@pytest.mark.parametrize("verb", [
    ["distribution", "--observable", "basis", "--state", "mixed"],
    ["measure", "--model", "meter"],
])
def test_scenario_verbs_exit_1_on_an_invalid_scenario(verb, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"objects": {"mixed": {"type": "state", "matrix": [[[2.0, 0.0]]]}}}))
    assert main(verb[:1] + ["--scenario", str(path)] + verb[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid scenario: object 'mixed'") and captured.out == ""


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    # a POVM off by 1e-6 fails at the default tolerance but passes at 1e-3
    from qcond.scenario import matrix_to_json

    eye = matrix_to_json(np.eye(2) * (0.5 + 5e-7))
    path = tmp_path / "coarse.json"
    path.write_text(
        json.dumps(
            {"objects": {"povm": {"type": "observable", "outcomes": ["a", "b"], "effects": [eye, eye]}}}
        )
    )
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    monkeypatch.setenv("QCOND_TOL", "1e-3")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    # explicit --tol wins over the environment
    monkeypatch.setenv("QCOND_TOL", "1e-12")
    assert main(["validate", str(path), "--tol", "1e-3"]) == 0


def test_env_tolerance_rejects_garbage(monkeypatch):
    monkeypatch.setenv("QCOND_TOL", "banana")
    with pytest.raises(SystemExit):
        main(["check", "--suite", "dual-map", "--trials", "1", "--dims", "2", "--seed", "0"])


BAD_TOLERANCES = ["inf", "nan", "0", "abc"]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_tol_flag_must_be_finite_and_positive(tol):
    # one rule for every bad value, unparsable ones included: exit with a
    # message naming the flag
    with pytest.raises(SystemExit, match="--tol"):
        main(["check", "--suite", "dual-map", "--trials", "1", "--dims", "2", "--tol", tol])


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_env_tolerance_must_be_finite_and_positive(tol, monkeypatch, scenario_file):
    monkeypatch.setenv("QCOND_TOL", tol)
    with pytest.raises(SystemExit, match="QCOND_TOL"):
        main(["check", "--suite", "dual-map", "--trials", "1", "--dims", "2"])
    with pytest.raises(SystemExit, match="QCOND_TOL"):
        main(["validate", str(scenario_file)])


@pytest.mark.parametrize("field,value", [
    ("tolerance", float("inf")),
    ("tolerance", float("nan")),
    ("tolerance", 0),
    ("tolerance", "abc"),
    ("tolerance", True),
    ("tolerance", "1e-3"),
    ("seed", "abc"),
])
def test_validate_exits_1_on_bad_metadata(field, value, tmp_path, capsys):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({field: value, "objects": {}}))
    assert main(["validate", str(path)]) == 1
    assert field in capsys.readouterr().err


def test_validate_exits_1_on_fractional_model_dimension(scenario_file, capsys):
    payload = json.loads(scenario_file.read_text())
    payload["objects"]["meter"]["dim_base"] = 2.7
    scenario_file.write_text(json.dumps(payload))
    assert main(["validate", str(scenario_file)]) == 1
    assert "dim_base" in capsys.readouterr().err


def test_check_rejects_negative_trials(capsys):
    assert main(["check", "--suite", "dual-map", "--trials", "-3", "--dims", "2..3"]) == 2
    captured = capsys.readouterr()
    assert "trials" in captured.err
    assert '"passed"' not in captured.out


def test_validate_exits_1_on_non_list_instrument_operation(tmp_path, capsys):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"objects": {
        "ins": {"type": "instrument", "outcomes": ["x0"], "operations": [5]},
    }}))
    assert main(["validate", str(path)]) == 1
    assert "operation" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    ("mixed", "matrix", [[{"a": 1}]]),
    ("mixed", "matrix", [[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]]),
    ("meter", "interaction", ["interact"]),
    ("meter", "probe", ["probe"]),
])
def test_validate_exits_1_on_malformed_entry_or_reference(scenario_file, capsys, edit):
    name, key, value = edit
    payload = json.loads(scenario_file.read_text())
    payload["objects"][name][key] = value
    scenario_file.write_text(json.dumps(payload))
    assert main(["validate", str(scenario_file)]) == 1
    assert f"object '{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("dims", ["0..2", "3..2", "2,x", "x", "0"])
def test_bad_dims_exit_2_with_an_error_naming_dims(dims, capsys):
    code = main(["check", "--suite", "dual-map", "--trials", "1", "--dims", dims])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--dims" in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "qcond", "check", "--suite", "dual-map", "--trials", "1", "--dims", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all passed" in done.stdout


def test_python_dash_m_checks_the_composed_identities_at_dimensions_5_and_6():
    # the dimensions where composed Kraus lists would otherwise dominate,
    # which the canonical run (dims 2..3) never reaches
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    suite = "holevo-composition,holevo-separable"
    argv = [sys.executable, "-m", "qcond", "check", "--suite", suite]
    argv += ["--trials", "2", "--dims", "5..6", "--format", "json"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["passed"] and report["dims"] == [5, 6]
    assert [r["name"] for r in report["results"]] == suite.split(",")
    for r in report["results"]:
        assert r["instances"] == 4
        assert np.isfinite(r["max_deviation"]) and r["max_deviation"] <= r["tolerance"]


README_SCENARIO_VERBS = ("qcond validate ", "qcond distribution ", "qcond measure ")


def test_python_dash_m_runs_the_readme_scenario_commands():
    # the README's commands on the scenario file shipped in demos/
    root = Path(__file__).resolve().parents[1]
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith(README_SCENARIO_VERBS)]
    assert [c[0] for c in commands] == ["validate", "distribution", "measure"]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "qcond", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_distribution_rejects_a_state_of_another_dimension(fmt, tmp_path, capsys):
    scn = Scenario()
    scn.observables["basis"] = Observable(("x0", "x1"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    scn.states["wide"] = State.maximally_mixed(3)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    args = ["distribution", "--scenario", str(path), "--observable", "basis", "--state", "wide", "--format", fmt]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: observable and state dimensions differ\n"
    assert captured.out == ""
