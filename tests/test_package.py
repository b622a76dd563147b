"""The package namespace re-exports exactly the submodules' public names, and
``import qcond`` leaves the identity-check suite unloaded until first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import qcond

# qcond.__all__, in its order
EXPORTED = (
    "__version__",
    # linalg
    "DEFAULT_ATOL", "as_complex_matrix", "hermitian_part", "hermitized_matrix_units",
    "is_effect_matrix", "is_psd", "kron", "max_abs_diff",
    # errors
    "InvariantViolation", "OutcomeNotObserved", "ScenarioError",
    # effects
    "State", "Effect", "Observable", "StochasticMatrix", "OutcomeMap",
    "born_probability", "observable_distribution", "outcome_probabilities", "post_process",
    "part", "affine_combination", "certify_coexistence", "observable_deviation",
    # channels
    "Operation", "Channel", "map_sum", "map_deviation", "condition_effect",
    "condition_observable", "complete_subnormalized",
    # instruments
    "Instrument", "HolevoSpec", "given_observable", "given_distribution",
    "condition_instrument", "given_instrument", "holevo_operation", "holevo_instrument",
    "holevo_compose", "instrument_deviation",
    # measurement
    "MeasurementModel", "KrausSeparableChannel", "HolevoSeparableSpec", "HolevoModelQuantities",
    "holevo_model_quantities",
    # rand
    "random_state", "random_pure_state", "random_effect", "random_unitary", "random_observable",
    "random_channel", "random_instrument", "random_holevo_spec", "random_stochastic_matrix",
    "random_surjection",
    # scenario
    "Scenario", "load_scenario", "save_scenario", "matrix_to_json", "matrix_from_json",
    # checks
    "IdentityCheck", "IdentityResult", "CheckReport", "registered_identities",
    "resolve_suite", "run_checks",
)

SUBMODULES = ("linalg", "errors", "effects", "channels", "instruments", "measurement", "rand",
              "scenario", "checks")


def test_exported_names_are_pinned():
    assert len(qcond.__all__) == len(set(qcond.__all__)) == len(EXPORTED) == 68
    assert qcond.__all__ == list(EXPORTED)


def test_exports_are_the_submodules_public_names():
    for name in SUBMODULES:
        module = importlib.import_module(f"qcond.{name}")
        for attr in module.__all__:
            assert getattr(qcond, attr) is getattr(module, attr)


def test_the_lazily_loaded_names_are_the_check_suites_public_names():
    # the one place where the suite's names are spelled twice
    import qcond.checks

    assert qcond._CHECKS_NAMES == tuple(qcond.checks.__all__)


def test_a_check_name_is_read_from_the_suite_at_every_access(monkeypatch):
    # nothing is cached in the package namespace, so a function swapped into
    # qcond.checks (as the benchmark's tracer does) is what qcond hands out,
    # and the original once it is restored
    import qcond.checks

    original = qcond.checks.run_checks
    monkeypatch.setattr(qcond.checks, "run_checks", lambda *args: None)
    assert qcond.run_checks is qcond.checks.run_checks is not original
    monkeypatch.undo()
    assert qcond.run_checks is original
    assert "run_checks" not in vars(qcond)


LAZY_IMPORT = """
import contextlib, io, sys
import numpy as np
import qcond, qcond.cli, qcond.measurement, qcond.scenario
from qcond.rand import random_instrument, random_observable

rng = np.random.default_rng(1)
model = qcond.measurement.MeasurementModel(
    2, 2, random_instrument(2, 4, 2, rng), random_observable(2, 2, rng))
model.measured_instrument(), model.measured_pointer_observable()
assert "qcond.checks" not in sys.modules, "a readout loaded qcond.checks"

scenario = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert qcond.cli.main(["measure", "--scenario", scenario, "--model", "meter"]) == 0
    assert qcond.cli.main(["validate", scenario]) == 0
assert "qcond.checks" not in sys.modules, "a scenario verb loaded qcond.checks"

names = dir(qcond)
for name in ("checks",) + qcond._CHECKS_NAMES:
    assert name in names, name
try:
    qcond.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("qcond.no_such_name did not raise")
assert "qcond.checks" not in sys.modules, "dir() or a missing name loaded qcond.checks"

assert qcond.run_checks is qcond.checks.run_checks
namespace = {}
exec("from qcond import *", namespace)
assert all(name in namespace for name in qcond.__all__)
assert len(qcond.__all__) == 68
print("ok")
"""


def test_import_qcond_leaves_the_check_suite_unloaded_until_first_use():
    root = Path(__file__).resolve().parents[1]
    scenario = root / "demos" / "scenario.example.json"
    done = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_IMPORT, str(scenario)],
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
