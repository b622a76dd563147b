"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import time

import numpy as np
import pytest

import hostspeed
import qcond
import qcond.channels
import run
import tracing
import workloads


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([3.0], 99.9) == 3.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert tracing.self_times(start, end, parent).sum() == 10.0


def test_counted_calls_skips_same_object_chains():
    # Channel.__init__ -> Operation.__init__ on one object counts once; a
    # nested constructor on another object (an Effect inside an Observable)
    # counts on its own; functions (receiver 0) always count.
    in_group = np.array([True, True, True, True, True])
    parent = np.array([-1, 0, -1, 2, -1])
    receiver = np.array([7, 7, 8, 9, 0])
    assert tracing.counted_calls(in_group, parent, receiver) == 4


def test_tracer_records_nested_spans_and_restores_entry_points():
    original = qcond.channels.is_psd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qcond.channels.is_psd is not original
        qcond.channels.Channel.identity(2)
    finally:
        tracer.uninstall()
    assert qcond.channels.is_psd is original
    metrics = tracing.layer_metrics(tracer.names, tracer.spans())
    assert metrics["channels.ctor_calls"] == 1
    assert metrics["linalg.spectral_checks"] == 1
    names = [tracer.names[i] for i in tracer.spans()["name_id"]]
    assert names[:3] == ["channels.Channel.identity", "channels.Channel.__init__",
                         "channels.Operation.__init__"]
    assert "linalg.is_psd" in names


def test_per_layer_metrics_of_benchmark_json_are_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    empty = tracing.Tracer()
    produced = set(tracing.layer_metrics(empty.names, empty.spans()))
    produced |= {"scenario.bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _report(deviation, passed=True):
    return json.dumps({"passed": passed, "results": [
        {"name": "dual-map", "max_deviation": deviation, "tolerance": 1e-9, "passed": passed}]})


def test_report_checker_accepts_a_clean_pass():
    assert workloads.report_problems(_report(1e-12)) == []


@pytest.mark.parametrize("deviation", [math.nan, math.inf])
def test_report_checker_rejects_non_finite_deviation_even_when_marked_passed(deviation):
    assert workloads.report_problems(_report(deviation, passed=True))


def test_report_checker_rejects_deviation_above_tolerance_and_failed_reports():
    assert workloads.report_problems(_report(1e-6))
    assert workloads.report_problems(_report(0.0, passed=False))
    assert workloads.report_problems("not json")


def test_distribution_checker():
    assert workloads.distribution_ok({"x0": 0.25, "x1": 0.75})
    assert not workloads.distribution_ok({"x0": 0.5, "x1": 0.6})
    assert not workloads.distribution_ok({"x0": math.nan, "x1": 1.0})
    assert not workloads.distribution_ok({"x0": -0.5, "x1": 1.5})
    assert not workloads.distribution_ok({})


def test_state_checker():
    assert workloads.state_ok(np.eye(2) / 2)
    assert not workloads.state_ok(np.eye(2))
    assert not workloads.state_ok(np.diag([1.5, -0.5]))
    assert not workloads.state_ok(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_reference_on_the_timer_samples_inside_and_scales_to_nominal():
    ref = hostspeed.Reference("blas")
    with ref.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 20 * hostspeed.PERIOD_S:
            pass
        end = time.perf_counter()
    assert ref.inside(0, start, end) >= 5 * min(ref.times)
    assert ref.inside(0, start, end) <= sum(ref.times)
    assert ref.inside(0, end + 1, end + 2) == 0
    ref.times = [9.0] + [2.0] * 8 + [0.5]  # the extreme tenths are dropped
    assert ref.scale() == hostspeed.NOMINAL_S["blas"] / 2.0
