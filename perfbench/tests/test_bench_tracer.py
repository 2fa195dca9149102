"""Tests for span recording, self-time arithmetic and layer instrumentation.

Run from the root of a source checkout:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import tracer  # noqa: E402
from sspmsrk import methods, optimizer, pdelab  # noqa: E402


def test_self_time_without_children_is_duration():
    assert tracer.self_times([1.0], [4.0], [-1]) == [3.0]


def test_self_time_subtracts_disjoint_children():
    start = [0.0, 1.0, 5.0]
    end = [10.0, 3.0, 6.0]
    parent = [-1, 0, 0]
    assert tracer.self_times(start, end, parent) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 3.0, 5.0, 8.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [7, 8]: 5 of the parent's 10 seconds
    assert tracer.self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_parent():
    start = [2.0, 1.0]
    end = [4.0, 3.0]
    parent = [-1, 0]
    assert tracer.self_times(start, end, parent) == pytest.approx([1.0, 2.0])


def test_grandchildren_are_charged_to_their_own_parent():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 9.0, 4.0]
    parent = [-1, 0, 1]
    assert tracer.self_times(start, end, parent) == pytest.approx([2.0, 6.0, 2.0])


def _fake_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]

    return clock


def test_wrap_records_nesting_and_self_time():
    spans = tracer.Spans(clock=_fake_clock())
    inner = spans.wrap("inner", lambda x: x + 1)
    outer = spans.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert list(spans.parent) == [-1, 0]
    # outer runs from t=1 to t=4, inner from t=2 to t=3
    assert spans.summary() == {"outer": (1, pytest.approx(2.0)), "inner": (1, pytest.approx(1.0))}


def test_wrap_closes_span_on_exception():
    spans = tracer.Spans(clock=_fake_clock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spans.wrap("boom", boom)()
    assert spans.end[0] > spans.start[0]
    assert spans._stack == [-1]


def test_instrumentation_rebinds_every_module_and_restores():
    original = methods.canonical
    assert optimizer.canonical is original
    spans = tracer.Spans()
    inst = tracer.Instrumentation(spans, feas_tol=1e-10)
    inst.install()
    try:
        assert methods.canonical is not original
        assert optimizer.canonical is methods.canonical
        sp = methods.to_spijker(methods.ssprk33())
        optimizer.canonical(sp, 0.5)
    finally:
        inst.uninstall()
    assert methods.canonical is original and optimizer.canonical is original
    summary = spans.summary()
    assert summary["methods.canonical"][0] == 1
    assert summary["methods.validate"][0] == 1  # inside to_spijker


def test_rhs_states_and_monitors_are_counted():
    spans = tracer.Spans()
    inst = tracer.Instrumentation(spans, feas_tol=1e-10)
    inst.install()
    try:
        problem = pdelab.advection_upwind(11)
        record = pdelab.run(problem, methods.ssprk33(), problem.dx / 2, 10 * problem.dx)
    finally:
        inst.uninstall()
    steps = len(record.times) - 1
    # one rhs call per startup state, then s = 3 per step (two stages plus the new value)
    assert spans.counters["pdelab.rhs.advection.states"] == 1 + 3 * steps
    summary = spans.summary()
    assert summary["pdelab.msrk_step"][0] == steps
    assert summary["pdelab.monitors"][0] == 2 * len(record.times)
    assert summary["pdelab.exact.advection"][0] == 2  # startup sample and final error
