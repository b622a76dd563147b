"""Tests for the identity registry and the batch check runner."""

import json
import math

import numpy as np
import pytest

from qcond.checks import IdentityCheck, REGISTRY, registered_identities, resolve_suite, run_checks
from qcond.cli import main
from qcond.errors import OutcomeNotObserved

EXPECTED_IDENTITIES = {
    "postprocess-part-compose",
    "dual-map",
    "sequential-dual-contravariance",
    "conditioning-affine",
    "subnormalized-completion",
    "given-observable-marginals",
    "conditioned-set-closure",
    "holevo-composition",
    "measurement-pointer",
    "kraus-separable",
    "simple-kraus-separable",
    "holevo-separable",
}


def test_registry_is_complete_and_described():
    assert set(registered_identities()) == EXPECTED_IDENTITIES
    for check in REGISTRY.values():
        assert check.statement
        assert check.name == check.name.strip().lower()


def test_resolve_suite():
    assert resolve_suite("all") == list(REGISTRY)
    assert resolve_suite("dual-map,holevo-composition") == ["dual-map", "holevo-composition"]
    with pytest.raises(ValueError, match="unknown identity"):
        resolve_suite("dual-map,not-a-check")


def test_run_checks_all_pass_smoke():
    report = run_checks("all", trials=2, dims=[2], seed=123)
    assert report.passed
    assert len(report.results) == len(REGISTRY)
    assert [r.name for r in report.results] == sorted(REGISTRY)
    for r in report.results:
        assert r.instances == 2
        assert r.max_deviation <= 1e-9


def test_run_checks_zero_trials_is_empty_report():
    report = run_checks("all", trials=0, dims=[2, 3], seed=5)
    assert report.results == []
    assert report.passed


def test_run_checks_rejects_negative_trials():
    # a negative count must not pass as the vacuous trials=0 report
    for trials in (-1, -3):
        with pytest.raises(ValueError, match="trials"):
            run_checks("all", trials=trials, dims=[2], seed=0)


def test_run_checks_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_checks("all", trials=1, dims=[2], seed=0, tol=-1.0)
    with pytest.raises(ValueError):
        run_checks("all", trials=1, dims=[0], seed=0)
    with pytest.raises(ValueError):
        run_checks("bogus-name", trials=1, dims=[2], seed=0)


def test_reports_are_byte_identical_for_identical_inputs():
    a = run_checks("dual-map,postprocess-part-compose", trials=3, dims=[2], seed=9)
    b = run_checks("dual-map,postprocess-part-compose", trials=3, dims=[2], seed=9)
    assert a.to_json() == b.to_json()
    c = run_checks("dual-map,postprocess-part-compose", trials=3, dims=[2], seed=10)
    assert a.to_json() != c.to_json()


def test_json_report_shape():
    report = run_checks("dual-map", trials=2, dims=[2], seed=1)
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["seed"] == 1
    (entry,) = payload["results"]
    assert entry["name"] == "dual-map"
    assert "elapsed" not in json.dumps(payload)  # deterministic output only
    assert entry["max_deviation"] <= entry["tolerance"]


def test_table_report_mentions_every_identity():
    report = run_checks("all", trials=1, dims=[2], seed=2)
    table = report.to_table()
    for name in REGISTRY:
        assert name in table
    assert "all passed" in table


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, "abc"])
def test_run_checks_rejects_nonfinite_or_nonpositive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        run_checks("dual-map", trials=1, dims=[2], seed=0, tol=tol)


def test_nan_deviation_fails_the_gate(monkeypatch, capsys):
    calls = []

    def finite_then_nan(rng, dim, atol):
        calls.append(dim)
        return 0.0 if len(calls) == 1 else math.nan

    check = IdentityCheck("nan-identity", "returns NaN after a finite instance", finite_then_nan)
    monkeypatch.setitem(REGISTRY, check.name, check)
    report = run_checks(check.name, trials=3, dims=[2], seed=0)
    (result,) = report.results
    assert result.max_deviation == math.inf
    assert not result.passed and not report.passed
    argv = ["check", "--suite", check.name, "--trials", "3", "--dims", "2", "--seed", "0"]
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("exc", [
    OutcomeNotObserved("outcome 'y' has probability 0"),
    np.linalg.LinAlgError("eigenvalues did not converge"),
    RuntimeError("generator gave up"),
])
def test_raising_instance_fails_without_ending_the_run(exc, monkeypatch, capsys):
    calls = []

    def raise_once(rng, dim, atol):
        calls.append(dim)
        if len(calls) == 2:
            raise exc
        return 0.0

    check = IdentityCheck("raising-identity", "raises on its second instance", raise_once)
    monkeypatch.setitem(REGISTRY, check.name, check)
    report = run_checks([check.name, "dual-map"], trials=3, dims=[2], seed=0)
    assert len(calls) == 3
    results = {r.name: r for r in report.results}
    assert results[check.name].max_deviation == math.inf
    assert not results[check.name].passed and not report.passed
    assert results["dual-map"].passed
    calls.clear()
    argv = ["check", "--suite", check.name, "--trials", "3", "--dims", "2", "--seed", "0"]
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out
