"""The package namespace re-exports exactly the submodules' public names."""

import importlib

import qcond

EXPORTED = {
    "__version__",
    # linalg
    "DEFAULT_ATOL", "as_complex_matrix", "hermitian_part", "hermitized_matrix_units",
    "is_effect_matrix", "is_psd", "kron", "max_abs_diff",
    # errors
    "InvariantViolation", "OutcomeNotObserved", "ScenarioError",
    # effects
    "BiObservable", "Effect", "Observable", "OutcomeMap", "State", "StochasticMatrix",
    "affine_combination", "bi_observable_deviation", "born_probability", "certify_coexistence",
    "observable_deviation", "observable_distribution", "outcome_probabilities",
    "part", "post_process",
    # channels
    "Channel", "Operation", "complete_subnormalized",
    "condition_effect", "condition_observable", "map_deviation", "map_sum",
    # instruments
    "BiInstrument", "HolevoSpec", "Instrument", "bi_instrument_deviation", "condition_instrument",
    "given_distribution", "given_instrument", "given_observable", "holevo_compose",
    "holevo_instrument", "holevo_operation", "instrument_deviation",
    # measurement
    "HolevoModelQuantities", "HolevoSeparableSpec", "KrausSeparableChannel", "MeasurementModel",
    "holevo_model_quantities",
    # rand
    "random_channel", "random_effect", "random_holevo_spec", "random_instrument",
    "random_observable", "random_pure_state", "random_state", "random_stochastic_matrix",
    "random_surjection", "random_unitary",
    # scenario
    "Scenario", "load_scenario", "save_scenario", "matrix_to_json", "matrix_from_json",
    # checks
    "CheckReport", "IdentityCheck", "IdentityResult", "registered_identities",
    "resolve_suite", "run_checks",
}

SUBMODULES = ("linalg", "errors", "effects", "channels", "instruments", "measurement", "rand",
              "scenario", "checks")


def test_exported_names_are_pinned():
    assert len(qcond.__all__) == len(set(qcond.__all__)) == len(EXPORTED) == 72
    assert set(qcond.__all__) == EXPORTED


def test_exports_are_the_submodules_public_names():
    for name in SUBMODULES:
        module = importlib.import_module(f"qcond.{name}")
        for attr in module.__all__:
            assert getattr(qcond, attr) is getattr(module, attr)
