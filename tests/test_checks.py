"""Tests for the identity registry and the batch check runner."""

import fcntl
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import qcond.channels as channels
import qcond.checks as checks
import qcond.linalg as linalg
from qcond.channels import Channel, Operation, _completed, _require_trace_preserving
from qcond.checks import (
    IdentityCheck,
    _REGISTRY,
    _instance_deviations,
    _tasks,
    registered_identities,
    resolve_suite,
    run_checks,
)
from qcond.cli import main
from qcond.effects import (
    Effect,
    Observable,
    OutcomeMap,
    State,
    StochasticMatrix,
    affine_combination,
    born_probability,
    certify_coexistence,
    observable_distribution,
    outcome_probabilities,
    observable_deviation,
)
from qcond.errors import InvariantViolation, OutcomeNotObserved
from qcond.channels import map_deviation
from qcond.instruments import (
    HolevoSpec,
    Instrument,
    _holevo_family,
    given_distribution,
    holevo_operation,
    instrument_deviation,
)
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
    holevo_model_quantities,
    _grams,
    _probe_readout,
    _pure_probe_states,
)
from qcond.rand import _generators, _trial_states, random_channel, random_instrument, random_observable, random_state

from factorizations import watch_factorizations

# in definition order, the order of the registry
EXPECTED_IDENTITIES = (
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
)

# every identity runs as a batch
BATCHED = sorted(EXPECTED_IDENTITIES)


def test_registry_is_complete_and_described():
    assert registered_identities() == EXPECTED_IDENTITIES
    for check in _REGISTRY.values():
        assert check.statement
        assert check.name == check.name.strip().lower()


def test_resolve_suite():
    assert resolve_suite("all") == list(_REGISTRY)
    assert resolve_suite("all,all") == list(_REGISTRY)
    assert resolve_suite("all,dual-map") == list(_REGISTRY)
    assert resolve_suite("dual-map,all") == list(_REGISTRY)
    assert resolve_suite("dual-map,holevo-composition,dual-map") == [
        "dual-map",
        "holevo-composition",
    ]
    assert resolve_suite("dual-map,holevo-composition") == ["dual-map", "holevo-composition"]
    # an unknown name is rejected beside ``all`` too
    for spec in ("dual-map,dual-mpa", "all,dual-mpa", "dual-mpa,all", ["all", "dual-mpa"]):
        with pytest.raises(ValueError, match=r"unknown identity name\(s\): dual-mpa"):
            resolve_suite(spec)


@pytest.mark.parametrize("spec, expected", [
    (np.array(["dual-map"]), ["dual-map"]),
    (np.array(["dual-map", "holevo-composition", "dual-map"]), ["dual-map", "holevo-composition"]),
    (None, list(_REGISTRY)),
    (np.array([], dtype=str), list(_REGISTRY)),
], ids=["array-of-one", "array-of-three", "none", "empty-array"])
def test_any_iterable_of_names_is_a_suite(spec, expected):
    # an array of two or more names has no truth value: the spec is read as
    # a list before an empty one stands for ``all``
    assert resolve_suite(spec) == expected


@pytest.mark.parametrize("suite, named", [([5], "5"), ([None], "None"), (["dual-map", 5], "5")],
                         ids=["int", "none", "known-and-int"])
def test_a_suite_entry_that_is_not_a_string_is_an_unknown_name(suite, named):
    with pytest.raises(ValueError, match=rf"^unknown identity name\(s\): {named}$"):
        resolve_suite(suite)
    with pytest.raises(ValueError, match=rf"^unknown identity name\(s\): {named}$"):
        run_checks(suite, 1, [2], 7)


def test_an_identity_name_registered_twice_raises(monkeypatch):
    monkeypatch.setattr(checks, "_REGISTRY", dict(_REGISTRY))

    def runner(rngs, dim):
        yield np.zeros(len(rngs))

    with pytest.raises(ValueError, match="'dual-map' is registered twice"):
        checks._identity("dual-map", "registered again")(runner)
    assert checks._REGISTRY["dual-map"] == _REGISTRY["dual-map"]
    assert checks._identity("fake-identity", "registered last")(runner) is runner
    assert list(checks._REGISTRY)[-1] == "fake-identity"
    assert checks._REGISTRY["fake-identity"] == IdentityCheck("fake-identity", "registered last", runner)


@pytest.mark.parametrize("trials", [2.0, 1.5, True, "2", None])
def test_run_checks_rejects_a_trial_count_that_is_not_an_integer(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_checks("dual-map", trials=trials, dims=[2], seed=0)


@pytest.mark.parametrize("seed", [1.5, 7.0, False, "7"])
def test_run_checks_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_checks("dual-map", trials=1, dims=[2], seed=seed)


@pytest.mark.parametrize("dims", [[2.5], [True], [2, 3.0], ["2"]])
def test_run_checks_rejects_a_dimension_that_is_not_an_integer(dims):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        run_checks("dual-map", trials=1, dims=dims, seed=0)


def test_run_checks_takes_numpy_integers():
    numpy_ints = run_checks("dual-map", trials=np.int64(2), dims=[np.int32(2)], seed=np.uint8(5))
    assert numpy_ints.to_json() == run_checks("dual-map", trials=2, dims=[2], seed=5).to_json()


def test_run_checks_all_pass_smoke():
    report = run_checks("all", trials=2, dims=[2], seed=123)
    assert report.passed
    assert len(report.results) == len(_REGISTRY)
    assert [r.name for r in report.results] == sorted(_REGISTRY)
    for r in report.results:
        assert r.instances == 2
        assert r.max_deviation <= 1e-9


def test_repeated_names_and_dims_collapse_to_their_first_occurrence():
    report = run_checks("dual-map,dual-map", trials=2, dims=[3, 2, 3, 2], seed=4)
    (result,) = report.results
    assert report.suite == ["dual-map"]
    assert report.dims == result.dims == [3, 2]
    assert result.instances == 4
    single = run_checks("dual-map", trials=2, dims=[3, 2], seed=4)
    assert report.to_json() == single.to_json()


def test_run_checks_zero_trials_is_empty_report():
    report = run_checks("all", trials=0, dims=[2, 3], seed=5)
    assert report.results == []
    assert report.passed


def test_run_checks_rejects_negative_trials():
    # a negative count must not pass as the vacuous trials=0 report
    for trials in (-1, -3):
        with pytest.raises(ValueError, match="trials"):
            run_checks("all", trials=trials, dims=[2], seed=0)


def test_run_checks_rejects_trial_counts_past_one_entropy_word(capsys):
    # each trial index is one 32-bit word; a longer run would take days, so a
    # typo in the count is refused up front instead of starting it
    with pytest.raises(ValueError, match=r"^trials must be below 2\*\*32, got 4294967296$"):
        run_checks("dual-map", trials=2**32, dims=[2], seed=0)
    with pytest.raises(ValueError, match=r"^trials must be non-negative, got -1$"):
        run_checks("dual-map", trials=-1, dims=[2], seed=0)
    huge = "99999999999999999999999"
    assert main(["check", "--suite", "dual-map", "--trials", huge, "--dims", "2"]) == 2
    assert f"trials must be below 2**32, got {huge}" in capsys.readouterr().err


def test_run_checks_rejects_a_negative_seed(capsys):
    # a negative seed has no generator: refused up front, as a negative
    # trial count is, not run as a report in which every instance fails
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -3$"):
        run_checks("all", trials=1, dims=[2], seed=-3)
    assert main(["check", "--suite", "dual-map", "--trials", "1", "--dims", "2", "--seed", "-3"]) == 2
    assert "seed must be non-negative, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [
    (0, 0, 0, 0),
    (2**32, 1, 2, 3),
    (2**64 + 5, 123, 3, 2**32 - 1),
    (7, 2**32 - 1, 2, 99),
])
def test_seed_words_give_the_generator_of_the_seed_tuple(seed):
    # hashed as a batch of one: the tuple's last entry is its trial
    *prefix, trial = seed
    (rng,) = _generators(_trial_states(prefix, range(trial, trial + 1)))
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def _recording(states, fail_batches=False):
    """A runner that appends each generator's state to ``states`` and, with
    ``fail_batches``, raises on a batch of more than one."""

    def record(rngs, dim):
        states.extend(rng.bit_generator.state for rng in rngs)
        if fail_batches and len(rngs) > 1:
            raise RuntimeError("only alone")
        yield np.zeros(len(rngs))

    return record


def test_canonical_instances_get_the_generators_of_their_seed_tuples(monkeypatch):
    # every instance of the canonical run: 12 identities, dimensions 2..3,
    # 100 trials, seed 7; on one worker, so that every runner records into
    # this process's lists, in task order: the largest dimension first
    monkeypatch.setattr(checks, "_worker_count", lambda: 1)
    recorded = {}
    for name in _REGISTRY:
        recorded[name] = []
        check = IdentityCheck(name, "records its generators", _recording(recorded[name]))
        monkeypatch.setitem(_REGISTRY, name, check)
    assert run_checks("all", trials=100, dims=[2, 3], seed=7).passed
    assert len(recorded) == 12
    for name, states in recorded.items():
        key = zlib.crc32(name.encode("utf-8"))
        seeds = [(7, key, dim, t) for dim in (3, 2) for t in range(100)]
        assert states == [np.random.default_rng(s).bit_generator.state for s in seeds]


def test_a_rerun_instance_gets_the_generator_of_its_seed_tuple_without_a_second_hash(monkeypatch):
    # the batch raises, so each instance reruns alone, on a fresh generator
    # from the row hashed for the batch
    name = "rerun-identity"
    states = []
    check = IdentityCheck(name, "raises in a batch", _recording(states, fail_batches=True))
    monkeypatch.setitem(_REGISTRY, name, check)
    hashes = []

    def counted(prefix, trials):
        hashes.append(trials)
        return _trial_states(prefix, trials)

    monkeypatch.setattr(checks, "_trial_states", counted)
    assert run_checks(name, trials=3, dims=[2], seed=2**40).passed
    assert hashes == [range(3)]
    key = zlib.crc32(name.encode("utf-8"))
    expected = [np.random.default_rng((2**40, key, 2, t)).bit_generator.state for t in range(3)]
    assert states == expected + expected


@pytest.mark.parametrize("size", [1, 3, 40, 100])
def test_batches_are_consecutive_runs_of_the_batch_size(size, monkeypatch):
    # the batches of one identity at one dimension, in task order
    monkeypatch.setattr(checks, "BATCH_SIZE", size)
    for trials in range(251):
        batches = [batch for _, _, batch in _tasks(["x"], [2], trials, range(-(-trials // size)))]
        assert [t for b in batches for t in b] == list(range(trials))
        assert all(b.step == 1 for b in batches)
        # every batch is full but the last, which is not empty
        assert len(batches) == math.ceil(trials / size)
        assert [len(b) for b in batches[:-1]] == [size] * (len(batches) - 1)


def test_the_first_batch_of_a_huge_trial_count_is_made_alone():
    # the bounds are arithmetic: nothing the size of the run is allocated,
    # for the first task or for the last
    tracemalloc.start()
    try:
        # 2**70 = ...424: the last batch holds the last 24 trials
        first, last = _tasks(["x"], [2], 2**70, [0, 2**70 // 100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ("x", 2, range(100))
    assert last == ("x", 2, range(2**70 - 24, 2**70))
    assert peak < 64 * 1024


def test_task_numbers_run_largest_dimension_first_then_by_name_then_by_batch():
    # 250 trials are batches of 100, 100 and 50
    names, dims = ["b-identity", "a-identity"], [2, 5, 3]
    expected = [(name, dim, range(start, min(start + 100, 250)))
                for dim in (5, 3, 2) for name in sorted(names) for start in (0, 100, 200)]
    assert list(_tasks(names, dims, 250, range(18))) == expected
    assert list(_tasks(names, dims, 250, [17, 4, 9])) == [expected[17], expected[4], expected[9]]


def test_instances_run_on_the_generators_of_their_seed_tuples(monkeypatch):
    # a seed of two words: each instance's generator is default_rng(tuple)'s
    # (on one worker, which records into this process's list in task order,
    # the largest dimension first)
    monkeypatch.setattr(checks, "_worker_count", lambda: 1)
    name = "recording-identity"
    states = []
    check = IdentityCheck(name, "records its generators", _recording(states))
    monkeypatch.setitem(_REGISTRY, name, check)
    assert run_checks(name, trials=3, dims=[2, 3], seed=2**40).passed
    key = zlib.crc32(name.encode("utf-8"))
    seeds = [(2**40, key, dim, t) for dim in (3, 2) for t in range(3)]
    assert states == [np.random.default_rng(s).bit_generator.state for s in seeds]


def test_run_checks_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_checks("all", trials=1, dims=[2], seed=0, tol=-1.0)
    with pytest.raises(ValueError):
        run_checks("all", trials=1, dims=[0], seed=0)
    # no dimension is no instance: refused, not a report that passes with
    # zero instances per identity
    for trials in (5, 0):
        with pytest.raises(ValueError, match=r"^dims must name at least one dimension$"):
            run_checks("dual-map", trials, [], 7)
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
    for name in _REGISTRY:
        assert name in table
    assert "all passed" in table


# float(True) is 1.0: a boolean must not reach the gate as tolerance 1
@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, "abc", pytest.param(10**400, id="10**400"),
                                 True, pytest.param(np.True_, id="numpy-True"), False])
def test_run_checks_rejects_nonfinite_or_nonpositive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        run_checks("dual-map", trials=1, dims=[2], seed=0, tol=tol)


def test_a_check_run_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, a cost a check run need not
    # pay; where importing numpy imports numpy.ma too, there is none to avoid.
    # One worker runs every task, so that this process sees all of them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import os, sys; from qcond.cli import main; import qcond.checks as checks; "
            "checks._worker_count = lambda: 1; before = 'numpy.ma' in sys.modules; "
            "main(['check', '--suite', 'all', '--trials', '1', '--dims', '2', '--out', os.devnull]); "
            "print(before, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()[-2:]
    assert after == before


def _first_draws(name, seed, dim, trials):
    """Each instance's first ``random()`` draw, from its seed tuple."""
    key = zlib.crc32(name.encode("utf-8"))
    return [np.random.default_rng([seed, key, dim, t]).random() for t in range(trials)]


def test_nan_deviation_fails_the_gate(monkeypatch, capsys):
    # instance-determined: NaN exactly for the instances whose first draw
    # is above a threshold that splits the three instances
    name = "nan-identity"
    draws = sorted(_first_draws(name, 0, 2, 3))
    threshold = (draws[0] + draws[1]) / 2

    def finite_then_nan(rngs, dim):
        yield np.array([0.0 if rng.random() < threshold else math.nan for rng in rngs])

    check = IdentityCheck(name, "returns NaN for some instances", finite_then_nan)
    monkeypatch.setitem(_REGISTRY, check.name, check)
    report = run_checks(check.name, trials=3, dims=[2], seed=0)
    (result,) = report.results
    assert result.max_deviation == math.inf
    assert not result.passed and not report.passed
    states = _trial_states((0, zlib.crc32(name.encode()), 2), range(3))
    devs = _instance_deviations(finite_then_nan, states, 2)
    assert np.isinf(devs).sum() == 2 and np.sum(devs == 0.0) == 1
    argv = ["check", "--suite", check.name, "--trials", "3", "--dims", "2", "--seed", "0"]
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("exc", [
    OutcomeNotObserved("outcome 'y' has probability 0"),
    np.linalg.LinAlgError("eigenvalues did not converge"),
    RuntimeError("generator gave up"),
])
def test_raising_instance_fails_without_ending_the_run(exc, monkeypatch, capsys):
    # instance-determined: the one instance whose first draw is the largest
    # raises, in a batch and alone alike
    name = "raising-identity"
    draws = _first_draws(name, 0, 2, 3)
    threshold = (max(draws) + sorted(draws)[1]) / 2

    def raise_once(rngs, dim):
        if any(rng.random() > threshold for rng in rngs):
            raise exc
        yield np.zeros(len(rngs))

    check = IdentityCheck(name, "raises on one seed-determined instance", raise_once)
    monkeypatch.setitem(_REGISTRY, check.name, check)
    report = run_checks([check.name, "dual-map"], trials=3, dims=[2], seed=0)
    results = {r.name: r for r in report.results}
    assert results[check.name].max_deviation == math.inf
    assert not results[check.name].passed and not report.passed
    assert results["dual-map"].passed
    # the JSON report is strict (no Infinity), so a strict parser reads a failure too
    payload = json.loads(report.to_json(), parse_constant=_no_constant)
    entries = {r["name"]: r for r in payload["results"]}
    assert payload["passed"] is False
    assert entries[check.name]["max_deviation"] is None and entries[check.name]["passed"] is False
    assert 0.0 <= entries["dual-map"]["max_deviation"] <= 1e-9
    states = _trial_states((0, zlib.crc32(name.encode()), 2), range(3))
    devs = _instance_deviations(raise_once, states, 2)
    assert devs.tolist() == [math.inf if d > threshold else 0.0 for d in draws]
    argv = ["check", "--suite", check.name, "--trials", "3", "--dims", "2", "--seed", "0"]
    assert main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


def test_a_raising_batch_fails_only_its_raising_instances():
    # a batch of 20 where the instances whose first integer draw is 0 raise:
    # only those count as inf, the others keep their deviation
    def some_raise(rngs, dim):
        picks = np.array([rng.integers(0, 4) for rng in rngs])
        if (picks == 0).any():
            raise InvariantViolation("fake", "nonzero pick")
        yield picks * 1e-12

    seeds = [(5, 11, 2, t) for t in range(20)]
    expected = np.array([np.random.default_rng(s).integers(0, 4) for s in seeds]) * 1e-12
    expected[expected == 0] = math.inf
    assert 0 < np.isinf(expected).sum() < 20
    states = _trial_states((5, 11, 2), range(20))
    np.testing.assert_array_equal(_instance_deviations(some_raise, states, 2), expected)


@pytest.mark.parametrize("name", BATCHED)
def test_a_batch_of_one_gives_each_instance_the_full_batch_deviations(name):
    # bit for bit: the result of an instance does not depend on its batch
    runner = _REGISTRY[name].runner
    key = zlib.crc32(name.encode("utf-8"))
    for dim in (2, 3):
        seeds = [(7, key, dim, t) for t in range(5)]
        full = list(runner([np.random.default_rng(s) for s in seeds], dim))
        assert full and all(p.shape == (5,) for p in full)
        for i, s in enumerate(seeds):
            alone = list(runner([np.random.default_rng(s)], dim))
            assert len(alone) == len(full)
            for whole, single in zip(full, alone):
                assert whole[i].tobytes() == single.tobytes()


def test_reports_do_not_depend_on_the_batch_size(monkeypatch):
    default = checks.BATCH_SIZE
    whole = run_checks(BATCHED, trials=5, dims=[2, 3], seed=3).to_json()
    monkeypatch.setattr(checks, "BATCH_SIZE", 2)
    assert run_checks(BATCHED, trials=5, dims=[2, 3], seed=3).to_json() == whole
    # uneven splits (7 trials: 7; 7; 3, 2, 2; seven of one), and dimension 4,
    # where holevo-composition's members are factored through the Choi matrix
    reports = set()
    for size in (default, 40, 3, 1):
        monkeypatch.setattr(checks, "BATCH_SIZE", size)
        reports.add(run_checks(BATCHED, trials=7, dims=[2, 3, 4], seed=3).to_json())
    assert len(reports) == 1


@pytest.fixture
def workers(monkeypatch):
    """Force the worker count of the next ``run_checks``: ``workers(n)``.

    Forcing it forks even where ``_worker_count`` would not, in a process
    that runs a multi-threaded BLAS, where Python 3.12+ warns that the
    process is multi-threaded; that warning, about the forced fork only, is
    not an error here."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        yield lambda n: monkeypatch.setattr(checks, "_worker_count", lambda: n)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_reports_do_not_depend_on_the_worker_count(workers, count):
    # 150 trials are two batches per identity and dimension, so some tasks
    # are second batches: 2 dims x 5 identities x 2 batches = 20 tasks
    suite = "dual-map,holevo-composition,given-observable-marginals,kraus-separable,subnormalized-completion"
    workers(1)
    alone = run_checks(suite, trials=150, dims=[2, 3], seed=11)
    workers(count)
    spread = run_checks(suite, trials=150, dims=[2, 3], seed=11)
    assert spread.to_json() == alone.to_json()
    assert [r.instances for r in spread.results] == [300] * 5
    _no_child_left()


def _after_a_child_exits(runner, child_status=None):
    """A runner that, in this process, first waits (up to 30 s) until a
    forked worker has exited, without reaping it, and then runs ``runner``;
    in a child it runs ``runner`` too, or with ``child_status`` ends the
    child with that status instead. With two workers and two tasks, the
    parent holds the first task it claims until the child has claimed the
    other, run it and exited."""
    parent = os.getpid()

    def run(rngs, dim):
        if os.getpid() != parent:
            if child_status is not None:
                os._exit(child_status)
            return runner(rngs, dim)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT | os.WNOHANG) is not None:
                break
            time.sleep(0.001)
        return runner(rngs, dim)

    return run


def _zeros(rngs, dim):
    yield np.zeros(len(rngs))


def test_a_worker_that_dies_fails_the_run(monkeypatch, workers, capsys):
    # two tasks (one per dimension): the parent holds the one it claims
    # until the child has died on the other; the run raises, never passes,
    # and leaves no process
    name = "dying-identity"
    runner = _after_a_child_exits(_zeros, child_status=3)
    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "dies in a child", runner))
    workers(2)
    with pytest.raises(RuntimeError, match=r"^check worker \d+ exited with status 3$"):
        run_checks(name, trials=1, dims=[2, 3], seed=0)
    _no_child_left()
    # the command prints it as one error: line and exits 1, with no report
    assert main(["check", "--suite", name, "--trials", "1", "--dims", "2..3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: check worker \d+ exited with status 3\n", err)
    _no_child_left()


def test_a_worker_that_sends_incomplete_results_fails_the_run(monkeypatch, workers):
    # the child runs one of the two tasks and sends a count one short
    name = "short-identity"
    runner = _after_a_child_exits(_zeros)
    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "runs in both", runner))
    parent = os.getpid()
    fold = checks._fold

    def short(tasks, seed):
        done, folded = fold(tasks, seed)
        return (done - 1 if os.getpid() != parent else done), folded

    monkeypatch.setattr(checks, "_fold", short)
    workers(2)
    with pytest.raises(RuntimeError, match=r"^check worker \d+ exited with status 0 but sent incomplete results$"):
        run_checks(name, trials=1, dims=[2, 3], seed=0)
    _no_child_left()


def test_workers_that_ran_another_total_than_the_tasks_fail_the_run(monkeypatch, workers):
    # every child's count matches its claims, but this process counts one
    # task short: the total no longer covers the run
    parent = os.getpid()
    fold = checks._fold

    def short_here(tasks, seed):
        done, folded = fold(tasks, seed)
        return (done - 1 if os.getpid() == parent else done), folded

    monkeypatch.setattr(checks, "_fold", short_here)
    workers(2)
    with pytest.raises(RuntimeError, match=r"^check workers ran 1 of 2 tasks$"):
        run_checks("dual-map", trials=1, dims=[2, 3], seed=0)
    _no_child_left()


def test_a_free_worker_claims_the_tasks_a_slow_one_leaves(monkeypatch, workers, tmp_path):
    # 20 tasks (batches of one, 10 trials, two dimensions) on two workers:
    # the parent sleeps 50 ms on each task it runs, so the child, free
    # sooner, claims most of them, and the report has the bytes of one worker's
    name = "dual-map"
    check = _REGISTRY[name]
    ran = tmp_path / "ran"
    parent = os.getpid()

    def slow_here(rngs, dim):
        with open(ran, "a") as log:
            log.write("p" if os.getpid() == parent else "c")
        if os.getpid() == parent:
            time.sleep(0.05)
        return check.runner(rngs, dim)

    monkeypatch.setattr(checks, "BATCH_SIZE", 1)
    workers(1)
    alone = run_checks(name, trials=10, dims=[2, 3], seed=4).to_json()
    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, check.statement, slow_here))
    workers(2)
    spread = run_checks(name, trials=10, dims=[2, 3], seed=4)
    _no_child_left()
    assert spread.to_json() == alone
    assert spread.results[0].instances == 20
    runs = ran.read_text()
    assert len(runs) == 20
    assert runs.count("c") > 10


def test_a_worker_killed_while_it_holds_the_claim_lock_fails_the_run(monkeypatch, workers):
    # the child is killed as soon as it holds the lock on the task counter;
    # the kernel drops the lock, so the parent, whose runner waits for the
    # child's death, claims the tasks left and the run fails on the child's
    # status instead of waiting for the lock forever
    name = "holding-identity"
    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "waits", _after_a_child_exits(_zeros)))
    parent = os.getpid()
    lockf = fcntl.lockf

    def killed_holding(fd, cmd, *args):
        lockf(fd, cmd, *args)
        if os.getpid() != parent and cmd == fcntl.LOCK_EX:
            os.kill(os.getpid(), signal.SIGKILL)

    def hung(signum, frame):
        raise _Stop

    monkeypatch.setattr(fcntl, "lockf", killed_holding)
    workers(2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)  # a run that waits for the dead child's lock stops here
    start = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match=r"^check worker \d+ exited with status -9$"):
            run_checks(name, trials=1, dims=[2, 3], seed=0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 20
    _no_child_left()


class _Stop(BaseException):
    """Raised by a runner in the parent: propagates out of ``run_checks``."""


def test_children_are_reaped_before_an_exception_in_the_parent_propagates(monkeypatch, workers):
    # the parent's task raises at once while the child's would run for a
    # minute: the child is killed and reaped before the exception leaves
    name = "stopping-identity"
    parent = os.getpid()

    def runner(rngs, dim):
        if os.getpid() == parent:
            raise _Stop
        time.sleep(60)
        yield np.zeros(len(rngs))

    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "stops the parent", runner))
    workers(2)
    start = time.perf_counter()
    with pytest.raises(_Stop):
        run_checks(name, trials=1, dims=[2, 3], seed=0)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_the_tasks_of_a_huge_trial_count_are_made_one_at_a_time(monkeypatch, workers):
    # 2**32 - 1 trials at two dimensions are 85,899,346 tasks: the split is
    # arithmetic, so nothing the size of the run is allocated before the
    # parent's first task (which stops the run)
    name = "stopping-identity"

    def runner(rngs, dim):
        raise _Stop
        yield

    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "stops the run", runner))
    workers(2)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            run_checks(name, trials=2**32 - 1, dims=[2, 3], seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    _no_child_left()


def test_a_process_with_a_second_thread_runs_the_checks_in_process(monkeypatch):
    # forking a multi-threaded process is unsafe (and warned about from
    # Python 3.12): with a live threading.Thread every runner runs here
    name = "recording-identity"
    states = []
    monkeypatch.setitem(_REGISTRY, name, IdentityCheck(name, "records", _recording(states)))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert checks._worker_count() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_checks(name, trials=150, dims=[2, 3], seed=5).passed
    finally:
        release.set()
        thread.join()
    assert len(states) == 300


def _single_threaded(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter with one
    BLAS thread, in which nothing else starts a thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_a_single_threaded_process_runs_one_worker_per_cpu():
    # every CPU of the process's affinity is a worker
    code = "import os, qcond.checks as c; print(c._worker_count(), len(os.sched_getaffinity(0)))"
    workers, cpus = _single_threaded(code).split()
    assert workers == cpus


def test_a_worker_flushes_no_buffer_and_runs_no_exit_handler():
    # standard output is a pipe, so the parent's first print waits in its
    # buffer while the workers are forked; a worker that ended through the
    # interpreter's exit would print it, and the atexit handler, again
    code = ("import atexit, qcond.checks as c; c._worker_count = lambda: 3; "
            "atexit.register(print, 'at exit'); print('buffered', end=' '); "
            "c.run_checks('dual-map,conditioning-affine', 1, [2, 3], 0); print('done')")
    assert _single_threaded(code) == "buffered done\nat exit\n"


@pytest.mark.parametrize("name, limit_mib", [("holevo-separable", 5.2), ("holevo-composition", 5)])
def test_a_canonical_batch_of_the_heaviest_identities_stays_small(name, limit_mib):
    # One dimension-3 batch of 100 instances, as the canonical run makes it.
    # An operation holds only its Kraus stack and Gram matrix, readouts copy
    # no member out of a larger result, and the runners drop each family
    # after its part: about 5.1 and 3.7 MiB. holevo-separable's limit also
    # holds the batched readout to one operation's probe-first copy at a
    # time: a copy of the whole joined stack beside it peaked at 5.9 MiB.
    # The runner is iterated directly, so a batch that raises cannot pass as
    # the smaller instance-by-instance rerun.
    runner = _REGISTRY[name].runner
    key = zlib.crc32(name.encode("utf-8"))
    list(runner([np.random.default_rng((7, key, 3, 0))], 3))
    rngs = [np.random.default_rng((7, key, 3, t)) for t in range(100)]
    tracemalloc.start()
    try:
        worst = np.zeros(len(rngs))
        for part in runner(rngs, 3):
            worst = np.maximum(worst, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst.max() <= 1e-9
    assert peak < limit_mib * 2**20


@pytest.mark.parametrize("name", BATCHED)
def test_batched_identity_construction_does_not_grow_with_the_trial_count(name, monkeypatch):
    # positivity tests, and the factorizations and eigenvalue fallbacks run
    # inside them (random draws call eigvalsh outside them)
    calls = {"kernel": 0, "cholesky": 0, "eigvalsh": 0}
    inside = []
    kernel = linalg._certified_positive

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        inside.append(True)
        try:
            return kernel(*args, **kwargs)
        finally:
            inside.pop()

    def counted(name, m, out):
        if name in calls:
            calls[name] += bool(inside)

    monkeypatch.setattr(linalg, "_certified_positive", counted_kernel)
    watch_factorizations(monkeypatch, counted)
    # Both runs fit in one batch. At seed 3 the first three instances of
    # kraus-separable already draw all three Kraus counts, so both runs of
    # it make the same three sub-batches.
    monkeypatch.setattr(checks, "BATCH_SIZE", 30)
    counts = []
    for trials in (3, 30):
        calls.update(kernel=0, cholesky=0, eigvalsh=0)
        assert run_checks(name, trials=trials, dims=[2], seed=3).passed
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["kernel"] == counts[0]["cholesky"] > 0
    assert counts[0]["eigvalsh"] == 0


# identity -> OutcomeMaps made per batch: drawn batches of surjections, and compositions
OUTCOME_MAPS = {"postprocess-part-compose": (2, 1), "conditioned-set-closure": (1, 0)}


@pytest.mark.parametrize("name", list(OUTCOME_MAPS))
def test_a_batch_makes_one_outcome_map_per_draw_and_per_composition(name, monkeypatch):
    made, composed = [], []
    init, then = OutcomeMap.__init__, OutcomeMap.then
    monkeypatch.setattr(OutcomeMap, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(OutcomeMap, "then", lambda self, other: composed.append(1) or then(self, other))
    monkeypatch.setattr(checks, "_worker_count", lambda: 1)
    monkeypatch.setattr(checks, "BATCH_SIZE", 4)
    # batches of 4, 4 and 2 instances
    assert run_checks(name, trials=10, dims=[2], seed=0).passed
    draws, compositions = OUTCOME_MAPS[name]
    assert (len(made), len(composed)) == (3 * (draws + compositions), 3 * compositions)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.7, 1.0), (-2.5, 3.25)])
@pytest.mark.parametrize("n", [1, 7])
def test_uniform_draws_have_the_bits_of_generator_uniform(low, high, n):
    rngs = [np.random.default_rng(s) for s in range(n)]
    refs = [np.random.default_rng(s) for s in range(n)]
    assert checks._uniforms(rngs, low, high).tolist() == [r.uniform(low, high) for r in refs]
    assert [r.random() for r in rngs] == [r.random() for r in refs]


def _message(fn, *args):
    with pytest.raises(InvariantViolation) as info:
        fn(*args)
    return str(info.value)


def _last_bad(good: np.ndarray, bad: np.ndarray, n: int = 4) -> np.ndarray:
    """A stack of ``n - 1`` copies of ``good`` followed by ``bad``."""
    return np.stack([good] * (n - 1) + [bad])


ATOL = 1e-9


# The public constructors take a batch: each member is checked by the rule
# of one object, in one call, and a bad last member fails with the message
# of that member alone.


def test_batched_state_and_effect_rules_reject_only_a_bad_last_member():
    rho = random_state(2, 0).matrix
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    half = rho / 2
    for bad in (not_psd, half):
        assert _message(State, _last_bad(rho, bad)) == _message(State, bad)
    assert State(_last_bad(rho, rho)).matrix.shape == (4, 2, 2)
    a = np.diag([0.3, 0.6]).astype(complex)
    for bad in (np.diag([1.2, 0.0]), np.diag([np.nan, 0.0])):
        bad = bad.astype(complex)
        assert _message(Effect, _last_bad(a, bad)) == _message(Effect, bad)
    assert Effect(_last_bad(a, a)).matrix.shape == (4, 2, 2)


def test_batched_family_rules_reject_only_a_bad_last_member():
    obs = random_observable(2, 3, 0).effect_stack
    labels = ("a", "c", "b")
    scaled = obs * 0.9
    grid = obs[:, None] * np.array([0.5, 0.5])[:, None, None]
    for bad in (scaled, np.stack([obs[0] + obs[1], obs[2] - 0.2 * np.eye(2), 0.2 * np.eye(2)])):
        assert _message(Observable, labels, _last_bad(obs, bad)) == _message(Observable, labels, bad)
    Observable(labels, _last_bad(obs, obs))
    axes = (labels, ("q", "p"))
    bad_grid = grid * 1.1
    assert _message(Observable, axes, _last_bad(grid, bad_grid)) == _message(Observable, axes, bad_grid)
    Observable(axes, _last_bad(grid, grid))


def test_batched_weight_rules_reject_only_a_bad_last_member():
    w = np.array([[0.25, 0.75], [1.0, 0.0]])
    for bad in (np.array([[0.5, 0.6], [1.0, 0.0]]), np.array([[1.2, -0.2], [1.0, 0.0]])):
        single = _message(StochasticMatrix, ("a", "b"), ("p", "q"), bad)
        assert _message(StochasticMatrix, ("a", "b"), ("p", "q"), _last_bad(w, bad)) == single
    assert StochasticMatrix(("a", "b"), ("p", "q"), _last_bad(w, w)).weights.shape == (4, 2, 2)
    mix = np.array([0.3, 0.7])
    bad = np.array([0.3, 0.6])
    observables = [random_observable(2, 2, s) for s in (1, 2)]
    single = _message(affine_combination, observables, bad)
    assert _message(affine_combination, observables, _last_bad(mix, bad)) == single
    assert affine_combination(observables, _last_bad(mix, mix)).effect_stack.shape == (4, 2, 2, 2)


def test_batched_operation_rules_reject_only_a_bad_last_member():
    kraus = random_channel(2, 3, 2, 0).kraus_stack
    for cls, bad in [(Channel, 0.9 * kraus), (Operation, 1.1 * kraus)]:
        assert _message(cls, _last_bad(kraus, bad)) == _message(cls, bad)
    assert Channel(_last_bad(kraus, kraus)).kraus_stack.shape == (4, 2, 3, 2)
    # an instrument batch checks the total of every member family
    first, second = kraus[:1], kraus[1:]
    members = [_last_bad(first, first), _last_bad(second, 1.2 * second)]
    single = _message(Instrument._from_kraus, ("a", "b"), [first, 1.2 * second], ATOL)
    assert _message(Instrument._from_kraus, ("a", "b"), members, ATOL) == single
    Instrument._from_kraus(("a", "b"), [_last_bad(first, first), _last_bad(second, second)], ATOL)
    family = random_observable(3, 3, 0).effect_stack[:2]
    assert _message(_completed, _last_bad(family, family * 2.0), ATOL).startswith("completion")


def test_a_batch_and_a_grid_are_told_apart_by_their_labels():
    obs = random_observable(2, 2, 0).effect_stack
    stack = np.stack([obs, obs[::-1]])  # (2, 2, d, d)
    batch = Observable(("b", "a"), stack)
    grid = Observable((("r", "s"), ("b", "a")), stack / 2)
    assert batch.axes == (("b", "a"),) and grid.axes == (("r", "s"), ("b", "a"))
    assert batch.effect_stack.shape == grid.effect_stack.shape == (2, 2, 2, 2)
    # the batch's views are per label, each the batch of that label's effects
    np.testing.assert_array_equal(batch.effect("a").matrix, stack[:, 1])
    # the grid's lookup takes one label per axis; its marginal sums the other axis
    np.testing.assert_array_equal(grid.effect("s", "a").matrix, stack[1, 1] / 2)
    np.testing.assert_array_equal(grid.marginal(1).effect_stack, stack.sum(axis=0) / 2)
    # a batch's marginal is member by member: a batch of grids
    grids = Observable((("r", "s"), ("b", "a")), np.stack([stack / 2] * 3))
    assert grids.marginal(0).effect_stack.shape == (3, 2, 2, 2)
    np.testing.assert_array_equal(grids.marginal(0).effect_stack[2], grid.marginal(0).effect_stack)


def test_a_batched_observable_holds_one_view_per_label():
    obs = random_observable(2, 3, 0)
    batch = Observable(("c", "a", "b"), np.stack([obs.effect_stack] * 50))
    assert len(batch.effects) == 3
    assert [e.matrix.shape for e in batch.effects] == [(50, 2, 2)] * 3
    grid = Observable((("r", "s"), ("c", "a", "b")), np.stack([np.stack([obs.effect_stack / 2] * 2)] * 50))
    assert [len(row) for row in grid.effects] == [3, 3]
    assert grid.effects[1][2].matrix.shape == (50, 2, 2)


def _batches_of_one_object():
    """One object of each kind and a batch of two of it."""
    rho = random_state(2, 0)
    obs = random_observable(2, 2, 1)
    ins = random_instrument(2, 2, 2, 2)
    return {
        "state": (rho, State(np.stack([rho.matrix] * 2))),
        "effect": (Effect(rho.matrix), Effect(np.stack([rho.matrix] * 2))),
        "observable": (obs, Observable(obs.outcomes, np.stack([obs.effect_stack] * 2))),
        "instrument": (ins, Instrument._from_kraus(
            ins.outcomes, [np.stack([op.kraus_stack] * 2) for op in ins.ops], ATOL)),
    }


# query -> (the kinds of object it reads one of, the query)
SINGLE_OBJECT_QUERIES = {
    "born_probability": (("state", "effect"), lambda o: born_probability(o["state"], o["effect"])),
    "observable_distribution": (("state", "observable"),
                                lambda o: observable_distribution(o["state"], o["observable"])),
    "outcome_probabilities": (("state", "observable"),
                              lambda o: outcome_probabilities(o["state"], o["observable"])),
    "certify_coexistence": (("observable",), lambda o: certify_coexistence(*[o["observable"]] * 3)),
    "updated_state": (("state", "instrument"), lambda o: o["instrument"].updated_state("x0", o["state"])),
    "subset_probability": (("state", "instrument"),
                           lambda o: o["instrument"].subset_probability(("x0",), o["state"])),
    "given_distribution": (("state", "observable", "instrument"), lambda o: given_distribution(
        o["observable"], o["instrument"], o["state"], ("x0",), ("x1",))),
    "apply": (("state",), lambda o: random_channel(2, 2, 2, 4).apply(o["state"])),
    "dual_apply": (("effect",), lambda o: random_channel(2, 2, 2, 4).dual_apply(o["effect"])),
    "HolevoSpec": (("observable",),
                   lambda o: HolevoSpec(o["observable"], [random_state(2, 5), random_state(2, 6)])),
    "outcome_weights": (("observable",), lambda o: KrausSeparableChannel(
        (np.eye(2),), (random_state(2, 7),)).outcome_weights(o["observable"])),
    "holevo_model_quantities": (("observable",), lambda o: holevo_model_quantities(HolevoSeparableSpec(
        random_observable(2, 2, 8), [random_state(2, 9)] * 2, [random_state(2, 10)] * 2), o["observable"])),
}


@pytest.mark.parametrize("query", list(SINGLE_OBJECT_QUERIES))
def test_each_single_object_query_rejects_a_batch(query):
    kinds, call = SINGLE_OBJECT_QUERIES[query]
    objects = _batches_of_one_object()
    call({kind: one for kind, (one, _) in objects.items()})
    for kind in kinds:
        with pytest.raises(ValueError, match=r"holds a batch of shape \(2,\): expected one object") as info:
            call({k: (batch if k == kind else one) for k, (one, batch) in objects.items()})
        assert not isinstance(info.value, InvariantViolation), kind


def test_batched_holevo_family_rejects_only_a_bad_last_member():
    obs = random_observable(2, 2, 0).effect_stack
    states = np.stack([random_state(3, s).matrix for s in (1, 2)])
    idx = np.arange(2)
    family = partial(_holevo_family, rows=idx, cols=idx, coeffs=np.ones(2), atol=ATOL)
    # a member that is not an effect (a negative eigenvalue) ...
    bad = np.stack([obs[0], np.diag([1.5, -0.5]).astype(complex)])
    batched = _message(family, _last_bad(obs, bad), _last_bad(states, states))
    assert batched == _message(holevo_operation, bad[1], states[1])
    # ... and a family that sums to more than a channel
    over = np.stack([obs[0], 1.5 * obs[1]])
    members = family(_last_bad(obs, over), _last_bad(states, states))
    single = _message(Instrument._from_kraus, ("a", "b"), family(over, states), ATOL)
    assert _message(Instrument._from_kraus, ("a", "b"), members, ATOL) == single
    # rank-one effects: a batch keeps the full 2 x 3 grid of each member,
    # zero operators included; a single family's members leave them out
    proj = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    members = family(_last_bad(proj, proj), _last_bad(states, states))
    assert [m.shape for m in members] == [(4, 6, 3, 2)] * 2
    batch = Instrument._from_kraus(("a", "b"), members, ATOL)
    assert [op.kraus_stack.shape for op in batch.ops] == [(4, 6, 3, 2)] * 2
    single = Instrument._from_kraus(("a", "b"), family(proj, states), ATOL)
    assert [op.kraus_stack.shape for op in single.ops] == [(3, 3, 2)] * 2


def test_batched_separable_rules_reject_only_a_bad_last_member():
    factors = random_channel(2, 2, 2, 0).kraus_stack
    states = np.stack([random_state(2, s).matrix for s in (1, 2)])
    bad = 0.9 * factors
    single = _message(KrausSeparableChannel, tuple(bad), tuple(states))
    rule = (ATOL, "KrausSeparableChannel", "normalization")
    assert _message(_require_trace_preserving, _grams(_last_bad(factors, bad)).sum(axis=-3), *rule) == single
    _require_trace_preserving(_grams(_last_bad(factors, factors)).sum(axis=-3), *rule)
    vecs = np.array([[1.0, 0.0], [0.6, 0.8j]])
    single = _message(KrausSeparableChannel.simple, tuple(factors), tuple(1.1 * vecs))
    assert _message(_pure_probe_states, _last_bad(vecs, 1.1 * vecs), ATOL) == single
    assert _pure_probe_states(_last_bad(vecs, vecs), ATOL).shape == (4, 2, 2, 2)


def test_readme_lists_the_registered_identities_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Registered identities:\n", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listed)) == registered_identities()


def test_readme_states_the_batch_size():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"`BATCH_SIZE` = (\d+)", readme) == [str(checks.BATCH_SIZE)]


def test_batched_readout_probe_rejects_only_a_bad_last_member():
    probe = random_observable(2, 2, 0).effect_stack
    bad = np.stack([probe[0], np.diag([1.2, -0.2]).astype(complex)])
    interaction = random_instrument(2, 4, 2, 0)
    single = _message(_probe_readout, interaction, ("a", "b"), bad, ATOL)
    assert _message(_probe_readout, interaction, ("a", "b"), _last_bad(probe, bad), ATOL) == single
    batch = _probe_readout(interaction, ("a", "b"), _last_bad(probe, probe), ATOL)
    assert [op.kraus_stack.shape[0] for op in batch.ops] == [4, 4]


def _fake_check(monkeypatch, runner):
    check = IdentityCheck("fake-identity", "yields fixed deviations", runner)
    monkeypatch.setitem(_REGISTRY, check.name, check)
    (result,) = run_checks(check.name, trials=2, dims=[2], seed=0).results
    return result


def test_nan_after_a_finite_part_fails_the_instance(monkeypatch):
    # Python's max(0.0, nan) is 0.0: the fold must not drop a later NaN
    def finite_then_nan(rngs, dim):
        yield np.zeros(len(rngs))
        yield np.full(len(rngs), math.nan)

    result = _fake_check(monkeypatch, finite_then_nan)
    assert result.max_deviation == math.inf and not result.passed


def test_runner_that_yields_nothing_fails(monkeypatch):
    def silent(rngs, dim):
        return
        yield

    result = _fake_check(monkeypatch, silent)
    assert result.max_deviation == math.inf and not result.passed


def test_runner_with_sub_tolerance_parts_passes_with_their_maximum(monkeypatch):
    def small(rngs, dim):
        yield np.full(len(rngs), 1e-12)
        yield np.full(len(rngs), 3e-12)
        yield np.zeros(len(rngs))

    result = _fake_check(monkeypatch, small)
    assert result.max_deviation == 3e-12 and result.passed


# --- the comparators, pinned on known differences computed by hand ---------

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _stacks_apart():
    """Two batches of two 2x2 matrices differing by 0.25 in one entry of the
    first and by 3 - 4j (modulus 5) in one entry of the second."""
    a = np.zeros((2, 2, 2), dtype=complex)
    b = a.copy()
    b[0, 1, 0] = 0.25
    b[1, 0, 1] = 3 - 4j
    return a, b


def _halves(u):
    """The operation rho -> u rho u† / 2, as two Kraus operators u / 2."""
    return Operation((u / 2, u / 2))


# The identity map and the bit flip rho -> X rho X differ on the Hermitian
# basis element i|0><1| - i|1><0|, which the flip sends to its negative: an
# entry of modulus 2. Halving both maps halves it; rho -> rho/4 differs from
# the identity by 3/4 of an entry of modulus 1.
COMPARATOR_PINS = {
    "_dev": (lambda: checks._dev(*_stacks_apart()), [0.25, 5.0]),
    # row sums against 1, as the separable runners compare them: rows of
    # sums 0.75 and 1 in the first instance, 1 and 0.5 in the second
    "_dev against a scalar": (
        lambda: checks._dev(np.array([[[0.5, 0.25], [0.5, 0.5]], [[1.0, 0.0], [0.25, 0.25]]]).sum(axis=-1), 1.0),
        [0.25, 0.5],
    ),
    "map_deviation": (lambda: map_deviation(Channel((I2,)), Channel((X2,))), 2.0),
    "map_deviation, batched": (
        lambda: map_deviation(
            Operation._checked(np.stack([I2[None], I2[None] / 2]), ATOL),
            Operation._checked(np.stack([X2[None], I2[None]]), ATOL),
        ),
        [2.0, 0.75],
    ),
    "instrument_deviation": (
        lambda: instrument_deviation(
            Instrument(("0", "1"), (_halves(I2), _halves(X2))),
            Instrument(("0", "1"), (_halves(X2), _halves(I2))),
        ),
        1.0,
    ),
    # the two-axis cases keep the names of the deviations they were pinned on
    "bi_instrument_deviation": (
        lambda: instrument_deviation(
            Instrument((("r",), ("0", "1")), ((_halves(I2), _halves(X2)),)),
            Instrument((("r",), ("0", "1")), ((_halves(X2), _halves(I2)),)),
        ),
        1.0,
    ),
    "observable_deviation": (
        lambda: observable_deviation(Observable(("0", "1"), (P0, P1)), Observable(("0", "1"), (I2 / 2, I2 / 2))),
        0.5,
    ),
    "bi_observable_deviation": (
        lambda: observable_deviation(
            Observable((("r",), ("0", "1")), ((P0, P1),)), Observable((("r",), ("0", "1")), ((I2 / 2, I2 / 2),))
        ),
        0.5,
    ),
}
# the pins that go through checks._dev or channels._superoperator_deviation
KERNEL_PINS = [name for name in COMPARATOR_PINS if "observable" not in name]


@pytest.mark.parametrize("name", list(COMPARATOR_PINS))
def test_comparator_gives_the_deviation_computed_by_hand(name):
    deviation, expected = COMPARATOR_PINS[name]
    np.testing.assert_allclose(deviation(), expected, rtol=0, atol=1e-15)


def test_comparator_pins_fail_when_the_kernels_return_zeros(monkeypatch):
    monkeypatch.setattr(checks, "_dev", lambda a, b: np.zeros(len(a)))
    monkeypatch.setattr(
        channels, "_superoperator_deviation", lambda diff, dim_in: channels._per_member(np.zeros(diff.shape[:-2]))
    )
    for name in KERNEL_PINS:
        deviation, expected = COMPARATOR_PINS[name]
        assert not np.allclose(deviation(), expected), name


def test_runners_compare_arrays_only_through_dev():
    # the runners' one array comparator is _dev, their map comparators the
    # map deviations; an inline np.abs comparison would be a third
    sources = {name: inspect.getsource(check.runner) for name, check in _REGISTRY.items()}
    sources["kraus-separable parts"] = inspect.getsource(checks._kraus_separable_parts)
    assert [name for name, source in sources.items() if "np.abs(" in source] == []


# --- planted defects: each identity fails when one kernel is broken ---------


def _unconjugated_superoperator(self):
    k = self.kraus_stack
    s = np.einsum("...kab,...kcd->...acbd", k, k)
    return s.reshape(s.shape[:-4] + (self.dim_out**2, self.dim_in**2))


def _undivided_completion(stack, atol):
    # b_x + (I - sum b) instead of b_x + (I - sum b) / n
    return stack + (np.eye(stack.shape[-1]) - stack.sum(axis=-3))[..., None, :, :]


def _first_outcome_completion(stack, atol):
    # the whole residual I - sum b to the first outcome: still an observable,
    # and its dual still vanishes where the residual's does
    completed = stack.copy()
    completed[..., 0, :, :] += np.eye(stack.shape[-1]) - stack.sum(axis=-3)
    return completed


def _sorted_rows(to_stochastic):
    # the kernel's rows built in sorted label order but labelled in the
    # order given: part() of an observable on ("b", "a") swaps its effects
    def broken(self, sources):
        sources = tuple(sources)
        kernel = to_stochastic(self, sorted(sources))
        return StochasticMatrix(sources, kernel.targets, kernel.weights)
    return broken


def _reversed_pointer(measured_pointer_observable):
    # the pointer's effects labelled in reverse probe order
    def broken(self, atol=ATOL):
        pointer = measured_pointer_observable(self, atol)
        return Observable(pointer.outcomes, pointer.effect_stack[..., ::-1, :, :], atol)
    return broken


# defect -> (owner, kernel name, replacement built from the original)
DEFECTS = {
    "conjugated dual": (Operation, "dual_matrix", lambda f: lambda self, m: np.conj(f(self, m))),
    "transposed apply": (Operation, "apply_matrix", lambda f: lambda self, m: f(self, m).mT),
    "swapped kron factors": (linalg, "kron", lambda f: lambda a, b: f(b, a)),
    "conjugated weighted_sum": (linalg, "weighted_sum", lambda f: lambda w, stack: np.conj(f(w, stack))),
    "unconjugated superoperator": (Operation, "superoperator", lambda f: _unconjugated_superoperator),
    "undivided completion residual": (channels, "_completed", lambda f: _undivided_completion),
    "residual to the first outcome": (channels, "_completed", lambda f: _first_outcome_completion),
    "outcome-map rows in sorted order": (OutcomeMap, "to_stochastic", _sorted_rows),
    "outcome maps composed in the wrong order": (OutcomeMap, "then", lambda f: lambda self, other: f(other, self)),
    "pointer in reverse probe order": (MeasurementModel, "measured_pointer_observable", _reversed_pointer),
}

PLANTED = {
    "postprocess-part-compose": "conjugated weighted_sum",
    "dual-map": "conjugated dual",
    "sequential-dual-contravariance": "conjugated dual",
    "conditioning-affine": "conjugated weighted_sum",
    "subnormalized-completion": "undivided completion residual",
    "given-observable-marginals": "conjugated dual",
    "conditioned-set-closure": "conjugated weighted_sum",
    "holevo-composition": "transposed apply",
    "measurement-pointer": "swapped kron factors",
    "kraus-separable": "unconjugated superoperator",
    "simple-kraus-separable": "swapped kron factors",
    "holevo-separable": "swapped kron factors",
}

# further (identity, defect) pairs: each identity fails under its defect too
ALSO_PLANTED = [
    ("subnormalized-completion", "residual to the first outcome"),
    # a label defect: the runners build labelled observables and kernels
    ("postprocess-part-compose", "outcome-map rows in sorted order"),
    ("postprocess-part-compose", "outcome maps composed in the wrong order"),
    # measurement-pointer reads its pointer off the grid; kraus-separable
    # compares the generic pointer with the closed form
    ("kraus-separable", "pointer in reverse probe order"),
]


def _plant(monkeypatch, owner, name, defect):
    """Replace ``owner.name`` by ``defect(original)``, also in every qcond
    module that imported it by name."""
    original = getattr(owner, name)
    broken = defect(original)
    monkeypatch.setattr(owner, name, broken)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("qcond.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, broken)


def test_every_identity_has_a_planted_defect():
    assert sorted(PLANTED) == sorted(registered_identities())
    assert set(PLANTED.values()) | {defect for _, defect in ALSO_PLANTED} == set(DEFECTS)


def _fails_under(name, defect, monkeypatch):
    assert run_checks(name, trials=3, dims=[2], seed=0).passed
    _plant(monkeypatch, *DEFECTS[defect])
    (result,) = run_checks(name, trials=3, dims=[2], seed=0).results
    assert result.max_deviation > result.tolerance and not result.passed


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_planted_defect_fails_its_identity(name, monkeypatch):
    _fails_under(name, PLANTED[name], monkeypatch)


@pytest.mark.parametrize("name, defect", ALSO_PLANTED)
def test_a_further_planted_defect_fails_its_identity(name, defect, monkeypatch):
    _fails_under(name, defect, monkeypatch)


def _three_entries(rngs, dim):
    yield np.zeros(3)


def _one_entry(rngs, dim):
    # broadcasts against any batch, but is right only for a batch of one
    yield np.full(1, 0.0 if len(rngs) == 1 else 0.5)


@pytest.mark.parametrize("runner, expected", [(_three_entries, [math.inf, math.inf]), (_one_entry, [0.0, 0.0])],
                         ids=["three", "one"])
def test_a_part_of_the_wrong_length_fails_its_batch(runner, expected):
    # a part must have one entry per instance: a batch that yields another
    # length reruns instance by instance
    states = _trial_states((1, 2, 3), range(2))
    assert _instance_deviations(runner, states, 2).tolist() == expected
