"""Tests for timing in reference seconds.

Run from the root of a source checkout:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import refclock  # noqa: E402


class FakeHost:
    """A clock, and a reference loop whose duration the test sets."""

    def __init__(self, reference_s):
        self.now = 0.0
        self.reference_s = list(reference_s)

    def clock(self):
        return self.now

    def reference(self):
        self.now += self.reference_s.pop(0)

    def work(self, seconds):
        def call():
            self.now += seconds
            return "done"

        return call


def test_call_on_a_host_at_nominal_speed_reads_its_wall_time():
    host = FakeHost([refclock.REF_S, refclock.REF_S])
    clock = refclock.RefClock(clock=host.clock, reference=host.reference)
    result, wall, scale = clock.measure(host.work(1.5))
    assert result == "done"
    assert wall == pytest.approx(1.5)
    assert wall * scale == pytest.approx(1.5)


def test_host_at_half_speed_is_scaled_back():
    # the reference loop takes twice its nominal time on both sides of the call
    host = FakeHost([2 * refclock.REF_S, 2 * refclock.REF_S])
    clock = refclock.RefClock(clock=host.clock, reference=host.reference)
    _, wall, scale = clock.measure(host.work(3.0))
    assert wall * scale == pytest.approx(1.5)


def test_consecutive_calls_share_the_reference_between_them():
    r = refclock.REF_S
    host = FakeHost([r, 3 * r, r])
    clock = refclock.RefClock(clock=host.clock, reference=host.reference)
    _, _, first = clock.measure(host.work(1.0))
    _, _, second = clock.measure(host.work(1.0))
    assert first == pytest.approx(2.0 / 4.0)  # references r and 3r around the call
    assert second == pytest.approx(2.0 / 4.0)  # references 3r and r
    assert clock.reference_s == pytest.approx([r, 3 * r, r])


def test_reference_loop_is_deterministic():
    assert refclock.reference_loop() == refclock.reference_loop()


def test_samples_during_a_call_are_taken_out_of_its_wall_time():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock(interval=0.05, reference=lambda: time.sleep(0.01))

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall, _ = clock.measure(busy)
    during = len(clock.reference_s) - 2  # one sample before the call, one after
    assert result == "done"
    assert during >= 3
    assert wall == pytest.approx(0.3 - 0.01 * during, abs=0.005 * during + 0.01)
    assert signal.getsignal(signal.SIGALRM) is before
