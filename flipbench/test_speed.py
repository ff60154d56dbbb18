"""Timings are scaled by the speed probes taken near them."""

import time

import pytest

import run


def test_probe_times_fixed_work():
    times = [run.probe() for _ in range(5)]
    assert all(0 < t < 1 for t in times)


def test_steady_probes_scale_every_time_alike():
    probes = [(0.1 * k, 2 * run.PROBE_REF_S) for k in range(40)]
    timeline = [(0.5, 0.2), (2.0, 0.1)]
    assert run.scaled_times(timeline, probes) == pytest.approx([0.1, 0.05])


def test_an_operation_is_scaled_by_the_probes_near_it():
    window = run.SPEED_WINDOW_S
    slow = [(k * 0.01, 2 * run.PROBE_REF_S) for k in range(10)]
    fast = [(10 * window + k * 0.01, run.PROBE_REF_S) for k in range(10)]
    timeline = [(0.0, 0.05), (10 * window, 0.05)]
    assert run.scaled_times(timeline, slow + fast) == pytest.approx([0.025, 0.05])


def test_an_operation_with_no_probe_near_it_takes_the_run_mean():
    probes = [(0.0, run.PROBE_REF_S), (0.01, 3 * run.PROBE_REF_S)]
    assert run.scaled_times([(100.0, 0.1)], probes) == pytest.approx([0.05])


def test_run_op_calls_between_after_each_command_outside_its_time():
    class Op:
        commands = [["a"], ["b"], ["c"]]

    calls = []

    def between():
        calls.append(len(calls))
        time.sleep(0.05)

    seconds, results, error = run.run_op(lambda argv: 0, Op(), between)
    assert error is None and len(results) == 3 and calls == [0, 1, 2]
    assert 0 <= seconds < 0.05
