import dataclasses
import functools
import inspect
import math
import re
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import method_library, random_valid_method, stack_forms
from conftest import same_bits as _same_bits
from sspmsrk import pdelab, series
from sspmsrk.methods import MSRKMethod, forward_euler, ssp_coefficient, ssprk33, to_spijker
from sspmsrk.msrkio import read_method
from sspmsrk.orderlab import convergence_order
from sspmsrk.pdelab import (
    MAX_STEPS,
    MONOTONICITY_SLACK,
    VDP_MAX_HORIZON,
    RunAbortedError,
    SemiDiscretization,
    advection_upwind,
    buckley_leverett,
    max_stable_step,
    msrk_step,
    positivity_min,
    run,
    startup,
    tv_seminorm,
    vdp_convergence_study,
    vdp_problem,
)
from sspmsrk.series import elementary_weights, rooted_trees
from sspmsrk.theory import gen_second_order

BENCH_OPT_234 = Path(__file__).resolve().parents[1] / "perfbench" / "methods" / "opt_2_3_4.msrk"


def _unreachable(*args, **kwargs):
    pytest.fail("an invalid argument reached the stepping loop")


# the np.roll formulas the right-hand sides and the TV monitor were first written with
def _roll_tv(u):
    return float(np.abs(np.diff(u, append=u[0])).sum())


def _roll_advection_rhs(u, dx):
    return -(u - np.roll(u, 1)) / dx


def _roll_buckley_rhs(u, dx, a=1.0 / 3.0):
    du = np.roll(u, -1) - u
    du_prev = u - np.roll(u, 1)
    theta = np.where(np.abs(du) > 1e-14, du_prev / np.where(du == 0.0, 1.0, du), 0.0)
    koren = np.maximum(0.0, np.minimum(np.minimum(2.0 * theta, (1.0 + 2.0 * theta) / 3.0), 2.0))
    phi = np.where(np.abs(du) > 1e-14, koren, 0.0)
    u_face = u + 0.5 * phi * du
    F = u_face**2 / (u_face**2 + a * (1.0 - u_face) ** 2)
    return -(F - np.roll(F, 1)) / dx


# the property rule as it was first written, one branch per property
def _two_branch_holds(values, prop, k):
    if prop == "positivity":
        return all(v >= -MONOTONICITY_SLACK for v in values)
    return not any(values[n] > max(values[max(0, n - k) : n]) + MONOTONICITY_SLACK
                   for n in range(k, len(values)))


# entries whose neighbours are equal, differ by 1e-14 or by a float either
# side of it, or differ by a rounded amount; zeros of both signs; negatives
_near_tol = [1e-14, np.nextafter(1e-14, 0.0), np.nextafter(1e-14, 1.0), 2e-14]
_entries = (st.builds(lambda base, off: base + off,
                      st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -0.5]),
                      st.sampled_from([0.0, -0.0] + _near_tol + [-d for d in _near_tol]))
            | st.floats(-2.0, 2.0))
_states = st.lists(_entries, min_size=3, max_size=40).map(np.array)


class TestRollFreeRewrite:
    """The right-hand sides and the TV monitor give the bits of the np.roll formulas."""

    @settings(max_examples=300, deadline=None)
    @given(_states)
    def test_same_bits_as_roll_formulas(self, u):
        dx = 1.0 / u.size
        with np.errstate(all="ignore"):
            assert _same_bits(tv_seminorm(u), _roll_tv(u))
            assert _same_bits(advection_upwind(u.size).rhs(u), _roll_advection_rhs(u, dx))
            assert _same_bits(buckley_leverett(u.size).rhs(u), _roll_buckley_rhs(u, dx))


class TestMonitors:
    def test_tv_of_step_function(self):
        u = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
        assert tv_seminorm(u) == pytest.approx(2.0)

    def test_tv_of_constant(self):
        assert tv_seminorm(np.full(7, 3.2)) == 0.0

    def test_positivity_min(self):
        assert positivity_min(np.array([0.3, -0.1, 2.0])) == pytest.approx(-0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_seminorm(np.array([]))
        with pytest.raises(ValueError, match="^u must be nonempty$"):
            positivity_min([])


class TestMsrkStep:
    def test_forward_euler_on_linear_decay(self):
        rhs = lambda u: -u
        u0 = np.array([1.0])
        u1, _ = msrk_step(forward_euler(), [u0], [rhs(u0)], rhs, 0.1)
        assert u1[0] == pytest.approx(0.9)

    def test_evaluation_count(self):
        calls = []

        def rhs(u):
            calls.append(1)
            return -u

        m = ssprk33()
        u0 = np.array([1.0])
        msrk_step(m, [u0], [rhs(u0)], rhs, 0.1)
        # 1 eval for the history rhs plus s-1 stage evals
        assert len(calls) == m.s

    def test_wrong_history_length_rejected(self):
        with pytest.raises(ValueError):
            msrk_step(ssprk33(), [np.zeros(1)] * 2, [np.zeros(1)] * 2, lambda u: u, 0.1)

    def test_two_step_method_uses_both_back_values(self):
        m = gen_second_order(2, 2)
        rhs = lambda u: np.zeros_like(u)
        hist = [np.array([1.0]), np.array([3.0])]
        u_next, _ = msrk_step(m, hist, [rhs(h) for h in hist], rhs, 0.1)
        expected = m.theta[0] * 1.0 + m.theta[1] * 3.0
        assert u_next[0] == pytest.approx(expected)

    @pytest.mark.parametrize("history, history_rhs", [
        ([np.zeros((2, 3))], [np.zeros((2, 3))]),
        ([1.0], [0.0]),
        ([np.zeros(3)], [np.zeros(4)]),
    ], ids=["multi-axis-state", "scalar-state", "rhs-of-another-shape"])
    def test_a_state_is_a_1d_array(self, history, history_rhs):
        with pytest.raises(ValueError, match="1-D states"):
            msrk_step(forward_euler(), history, history_rhs, _unreachable, 0.1)


def _spijker_step_as_first_written(sp, x, fx, f, h):
    """The step kernel as first written, on inputs of any shape, each
    flattened to one row."""
    k, n = sp.k, sp.k + sp.s
    lead = sp.S.shape[:-2]
    shape = lead + x.shape[1:]
    X = x.reshape(k, -1)
    F = np.empty(lead + (n - 1, X.shape[1]))
    F[..., :k, :] = fx.reshape(k, -1)
    for i in range(k, n):
        w = sp.S[..., i, :] @ X + h * (sp.T[..., i, None, :i] @ F[..., :i, :])[..., 0, :]
        if i < n - 1:
            F[..., i, :] = f(w.reshape(shape)).reshape(lead + (-1,))
    return w.reshape(shape), F[..., k - 1 :, :]


class TestStepKernel:
    """The kernel on (k, M) rows keeps the bits of the kernel as first written."""

    @pytest.mark.parametrize("make", [advection_upwind, buckley_leverett])
    def test_msrk_step_keeps_its_bits(self, make):
        rng = np.random.default_rng(34)
        problem = make()
        for method in method_library():
            history = rng.uniform(0.0, 1.0, size=(method.k, problem.dim))
            history_rhs = np.array([problem.rhs(u) for u in history])
            dt = rng.uniform(0.1, 2.0) * problem.dt_fe
            got = msrk_step(method, list(history), list(history_rhs), problem.rhs, dt)
            want = _spijker_step_as_first_written(to_spijker(method), history, history_rhs,
                                                  problem.rhs, dt)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], method.name

    @pytest.mark.parametrize("s, k", [(3, 2), (4, 3)])
    def test_elementary_weights_of_a_stack_keep_their_bits(self, s, k):
        rng = np.random.default_rng(35)
        trees = rooted_trees(6)
        stack = stack_forms([gen_second_order(s, k)]
                            + [random_valid_method(rng, s, k) for _ in range(4)])
        back, fback = series._exact_back_values(k, trees)
        want = _spijker_step_as_first_written(
            stack, back, fback, functools.partial(series._tree_system, trees), 1.0)
        got = elementary_weights(stack, trees)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestStartup:
    def test_exact_mode_samples_exact_solution(self):
        problem = advection_upwind(N=20)
        states = startup(problem, 0.01, 3, 2)
        assert len(states) == 3
        np.testing.assert_allclose(states[0], problem.u0)
        np.testing.assert_allclose(states[2], problem.exact(0.02))
        assert problem._startups == {}

    def test_rk3_substeps_matches_exact_for_vdp(self):
        problem = vdp_problem()
        dt = 0.05
        states = startup(dataclasses.replace(problem, exact=None), dt, 2, 2)
        np.testing.assert_allclose(states[1], problem.exact(dt), atol=1e-5)

    def test_start_up_follows_from_the_problem(self):
        assert list(inspect.signature(startup).parameters) == ["problem", "dt", "k", "p"]
        assert list(inspect.signature(run).parameters) == ["problem", "method", "dt", "tf"]

    @pytest.mark.parametrize("problem, dt", [(buckley_leverett, 0.006), (vdp_problem, 0.05)])
    def test_rk3_substeps_match_the_loop_as_first_written(self, problem, dt):
        problem = dataclasses.replace(problem(), exact=None)
        for k in range(1, 6):
            for p in range(1, 6):
                states = startup(problem, dt, k, p)
                assert len(states) == k
                expected = _startup_as_first_written(problem, dt, k, p)
                assert all(_same_bits(u, v) for u, v in zip(states, expected)), (k, p)

    @pytest.mark.parametrize("problem, dt, k, p", [
        (buckley_leverett, 0.006, 5, 6),  # 167 substeps per interval
        (buckley_leverett, 1e-9, 2, 4),  # substeps of about 1e-12
        # 643 substeps of 0.3 per interval, whose running sum fell short of 2*dt
        (lambda: dataclasses.replace(advection_upwind(3), exact=None), 192.90369775982902, 3, 3),
    ], ids=["0.006-5-6", "1e-09-2-4", "advection3-192.9-3-3"])
    def test_many_or_tiny_substeps(self, problem, dt, k, p):
        problem = problem()
        states = startup(problem, dt, k, p)
        assert len(states) == k
        expected = _startup_as_first_written(problem, dt, k, p)
        assert all(_same_bits(u, v) for u, v in zip(states, expected))

    def test_non_finite_substep_aborts(self):
        problem = dataclasses.replace(buckley_leverett(), rhs=lambda u: np.full_like(u, np.inf))
        with pytest.raises(RunAbortedError):
            startup(problem, 0.006, 2, 3)

    @pytest.mark.parametrize("k, interval", [(2, 1), (4, 1), (4, 2), (4, 3)])
    def test_non_finite_substep_names_its_start_up_interval(self, k, interval):
        problem, calls, nsub = _blowing_up(0.006, interval)
        message = f"non-finite state during start-up, in interval {interval} of 1..{k - 1}"
        with pytest.raises(RunAbortedError, match=re.escape(message)):
            startup(problem, 0.006, k, 3)
        assert len(calls) == 1 + 3 * nsub * (interval - 1) + 2  # no substep after the failing one

    def test_aborted_start_up_stores_nothing(self):
        problem, calls, _ = _blowing_up(0.006, 2)
        with pytest.raises(RunAbortedError):
            startup(problem, 0.006, 3, 3)
        assert problem._startups == {}

    def test_later_calls_read_the_first_written_states(self):
        # dt on both sides of the cap 0.9*dt_fe = 0.00225, so that nsub is 1
        # or more; k grows after a smaller k is kept and shrinks after a larger
        problem = buckley_leverett()
        for dt in (0.0015, 0.002, 0.003, 0.006):
            for p in range(2, 6):
                for k in (2, 4, 3, 5, 2):
                    states = startup(problem, dt, k, p)
                    expected = _startup_as_first_written(problem, dt, k, p)
                    assert [u.tobytes() for u in states] == [u.tobytes() for u in expected], \
                        (dt, k, p)
        # p = 2 and 3 share their substeps at dt = 0.0015 and 0.002
        assert len(problem._startups) < 4 * 4

    def test_a_longer_start_up_continues_the_kept_one(self):
        # k = 2 then 4 at one (dt, p): the second call runs only the two new
        # intervals, from the kept state, as one k = 4 start-up would run them
        calls = {}

        def counting(name):
            problem = buckley_leverett()
            calls[name] = 0

            def rhs(u):
                calls[name] += 1
                return problem.rhs(u)

            return dataclasses.replace(problem, rhs=rhs)

        grown, direct = counting("grown"), counting("direct")
        startup(grown, 0.006, 2, 3)
        first = calls["grown"]
        states = startup(grown, 0.006, 4, 3)
        expected = startup(direct, 0.006, 4, 3)
        assert [u.tobytes() for u in states] == [u.tobytes() for u in expected]
        assert len(grown._startups) == 1
        # one rhs call at the start of each run, then 3 per substep
        nsub = math.ceil(0.006 / (0.9 * grown.dt_fe))
        assert first == 1 + 3 * nsub
        assert calls["grown"] - first == 1 + 3 * 2 * nsub
        assert calls["direct"] == 1 + 3 * 3 * nsub

    def test_returned_states_cannot_change_later_ones(self):
        problem = buckley_leverett()
        expected = [u.tobytes() for u in _startup_as_first_written(problem, 0.006, 3, 3)]
        states = startup(problem, 0.006, 3, 3)
        for u in states:
            with pytest.raises(ValueError, match="read-only"):
                u[0] = 1.0
        states[1] = np.zeros(problem.dim)
        states.append(np.zeros(problem.dim))
        again = startup(problem, 0.006, 3, 3)
        assert [u.tobytes() for u in again] == expected

    @pytest.mark.parametrize("exact", [_unreachable, None], ids=["exact", "rk3_substeps"])
    @pytest.mark.parametrize("dt, k, message", [
        (-0.01, 3, "dt must be positive and finite"), (0.0, 2, "dt must be positive and finite"),
        (math.inf, 2, "dt must be positive and finite"), (math.nan, 2, "dt must be positive and finite"),
        (0.01, 0, "k must be at least 1"), (0.01, -1, "k must be at least 1")])
    def test_bad_step_or_step_count_rejected_before_any_work(self, exact, dt, k, message):
        for problem in (advection_upwind(), buckley_leverett()):
            problem = dataclasses.replace(problem, rhs=_unreachable, exact=exact)
            with pytest.raises(ValueError, match=f"^{message}$"):
                startup(problem, dt, k, 2)
            assert problem._startups == {}

    def test_replace_starts_with_no_start_ups(self):
        problem = buckley_leverett()
        startup(problem, 0.006, 3, 3)
        assert problem._startups
        assert dataclasses.replace(problem)._startups == {}

    def test_replace_gives_a_distinct_problem(self):
        problem = advection_upwind()
        copy = dataclasses.replace(problem)
        assert copy is not problem and copy != problem and not copy == problem
        assert np.array_equal(copy.u0, problem.u0) and copy.rhs is problem.rhs

    @pytest.mark.parametrize("make", [vdp_problem, advection_upwind, buckley_leverett])
    def test_initial_data_is_a_read_only_copy(self, make):
        problem = make()
        with pytest.raises(ValueError, match="read-only"):
            problem.u0[0] = 1.0
        u0 = np.array(problem.u0)
        dataclasses.replace(problem, u0=u0)
        u0[0] = 1.0  # the caller's array stays writable

    @pytest.mark.parametrize("make, dim", [(vdp_problem, 2), (lambda: advection_upwind(7), 7),
                                           (lambda: buckley_leverett(9), 9)])
    def test_dim_is_the_size_of_the_initial_data(self, make, dim):
        problem = make()
        assert "dim" not in inspect.signature(SemiDiscretization).parameters
        assert problem.dim == problem.u0.size == dim
        assert dataclasses.replace(problem, u0=np.zeros(dim + 3)).dim == dim + 3

    def test_probe_with_non_finite_start_up_fails(self):
        problem = dataclasses.replace(buckley_leverett(), rhs=lambda u: np.full_like(u, np.inf))
        method = gen_second_order(2, 2)
        for props in [("positivity",), ("tvd", "positivity")]:
            holds = pdelab._holds(problem, method, props, 0.001, 0.125)
            assert holds == (False,) * len(props)

    @pytest.mark.parametrize("dt, p", [
        (0.001, 400),  # dt**(p/3) underflows to 0
        (1e-300, 4),  # so does dt**(4/3)
        (0.001, 40),  # 1e37 substeps per interval
    ])
    def test_too_many_or_vanishing_substeps_rejected_before_stepping(self, monkeypatch, dt, p):
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        with pytest.raises(ValueError, match=re.escape(
                f"steps, more than MAX_STEPS = {MAX_STEPS:g}")):
            startup(buckley_leverett(), dt, 3, p)


def _blowing_up(dt, interval):
    """Buckley-Leverett whose rhs turns infinite at the first SSPRK(3,3)
    substep of the given start-up interval: one rhs call at u0, then 3 per
    substep.  Returns the problem, its list of calls and nsub."""
    problem = buckley_leverett()
    nsub = math.ceil(dt / (0.9 * problem.dt_fe))
    calls = []

    def rhs(u):
        calls.append(u)
        finite = len(calls) <= 1 + 3 * nsub * (interval - 1)
        return problem.rhs(u) if finite else np.full_like(u, np.inf)

    return dataclasses.replace(problem, rhs=rhs), calls, nsub


def _startup_as_first_written(problem, dt, k, p):
    """The rk3_substeps start-up as a loop of its own over SSPRK(3,3) substeps."""
    states = [problem.u0.copy()]
    nsub = max(1, math.ceil(dt / min(dt ** (p / 3.0), 0.9 * problem.dt_fe)))
    u = problem.u0.copy()
    for _ in range(k - 1):
        for _ in range(nsub):
            u, _ = msrk_step(ssprk33(), [u], [problem.rhs(u)], problem.rhs, dt / nsub)
        states.append(u)
    return states


def _buckley_rhs_as_first_written(u, dx, a=1.0 / 3.0):
    """The Buckley-Leverett rhs before its in-place limiter and backward differences."""
    def shift_right(d):  # d_{j-1} on a periodic grid
        return np.concatenate((d[-1:], d[:-1]))

    du = np.roll(u, -1) - u  # u_{j+1} - u_j
    theta = np.divide(shift_right(du), du, out=np.zeros_like(du), where=np.abs(du) > 1e-14)
    phi = np.maximum(0.0, np.minimum(np.minimum(2.0 * theta, (1.0 + 2.0 * theta) / 3.0), 2.0))
    u_face = u + 0.5 * phi * du
    flux = u_face**2 / (u_face**2 + a * (1.0 - u_face) ** 2)
    return shift_right(np.roll(flux, -1) - flux) / -dx


def _flat_stretches(rng, count, N=100):
    """States in [0, 1] of constant runs (du = 0), some neighbours moved by
    at most 1e-14 either way, one cell in four, and ordinary jumps."""
    tiny = np.array([1e-14, -1e-14, np.nextafter(1e-14, 0.0), -5e-15, 3e-15, 1e-15])
    states = []
    for _ in range(count):
        u = np.repeat(rng.choice([0.0, 0.25, 0.5, 1.0], size=N // 5), 5)
        moved = rng.random(N) < 0.25
        u[moved] += rng.choice(tiny, size=moved.sum())
        states.append(np.clip(u, 0.0, 1.0))
    return states


class TestProblems:
    def test_half_limiter_keeps_the_bits_of_half_the_limiter(self):
        rng = np.random.default_rng(6)
        special = [0.0, -0.0, 0.25, 1.0, -0.5, np.nextafter(-0.5, 0.0), np.nextafter(-0.5, -1.0),
                   1e14, -1e14, 5e-324, -5e-324]
        theta = np.concatenate([special, rng.normal(0.0, 3.0, 10_000),
                                rng.uniform(-1.0, 1.0, 1_000) * 1e-300])
        phi = np.maximum(0.0, np.minimum(np.minimum(2.0 * theta, (1.0 + 2.0 * theta) / 3.0), 2.0))
        assert _same_bits(pdelab._koren_half_phi(theta), 0.5 * phi)

    def test_buckley_rhs_keeps_the_bits_of_its_first_expression(self):
        rng = np.random.default_rng(2025)
        problem = buckley_leverett()
        flat = _flat_stretches(rng, 50)
        du = np.concatenate([np.roll(u, -1) - u for u in flat])
        assert (du == 0.0).any() and (du > 0.0).any() and (du < 0.0).any()
        assert ((du != 0.0) & (np.abs(du) <= 1e-14)).any()
        states = [problem.u0] + list(rng.uniform(0.0, 1.0, size=(200, problem.dim))) + flat
        for u in states:
            assert problem.rhs(u).tobytes() == _buckley_rhs_as_first_written(u, problem.dx).tobytes()

    def test_advection_exact_translation(self):
        problem = advection_upwind(N=50)
        np.testing.assert_allclose(problem.exact(1.0), problem.u0)

    def test_advection_rhs_conserves_mass(self):
        problem = advection_upwind()
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 1.0, problem.dim)
        assert problem.rhs(u).sum() == pytest.approx(0.0, abs=1e-10)

    def test_buckley_rhs_conserves_mass(self):
        problem = buckley_leverett()
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 1.0, problem.dim)
        assert problem.rhs(u).sum() == pytest.approx(0.0, abs=1e-10)

    def test_buckley_constant_state_is_steady(self):
        problem = buckley_leverett()
        np.testing.assert_allclose(problem.rhs(np.full(problem.dim, 0.3)), 0.0, atol=1e-12)

    def test_vdp_rhs(self):
        problem = vdp_problem()
        np.testing.assert_allclose(problem.rhs(np.array([0.5, 0.0])), [0.0, -0.05])

    def test_vdp_exact_agrees_with_finer_reference(self):
        problem = vdp_problem()
        ref = solve_ivp(lambda t, u: problem.rhs(u), (0.0, 4.0), problem.u0, method="Radau",
                        t_eval=[1.0, 4.0], rtol=1e-12, atol=1e-12)
        for t, u in zip(ref.t, ref.y.T):
            np.testing.assert_allclose(problem.exact(t), u, rtol=0, atol=1e-10)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            advection_upwind(N=2)
        with pytest.raises(ValueError, match="^N must be at least 3$"):
            buckley_leverett(N=2)

    @pytest.mark.parametrize("dt_fe", [0.0, -0.01])
    def test_nonpositive_forward_euler_step_rejected(self, dt_fe):
        with pytest.raises(ValueError, match="^dt_fe must be positive$"):
            dataclasses.replace(advection_upwind(), dt_fe=dt_fe)


class TestRun:
    def test_forward_euler_advection_is_tvd_at_dt_fe(self):
        problem = advection_upwind()
        record = run(problem, forward_euler(), problem.dt_fe, 0.125)
        tv = record.monitors["tv"]
        assert max(tv) <= tv[0] + 1e-12
        assert record.monitors["min"][-1] >= -1e-12

    def test_run_ends_at_the_last_whole_step_before_tf(self):
        # 0.1 is 33.3 steps of 0.003: the run stops after the 33rd
        record = run(advection_upwind(), ssprk33(), 0.003, 0.1)
        assert record.times[-1] == pytest.approx(33 * 0.003, abs=1e-12)
        np.testing.assert_allclose(np.diff(record.times), 0.003, rtol=0, atol=1e-12)

    def test_multistep_run_off_the_grid_keeps_its_order(self):
        # tf = 4 is 45.2 steps of dt; a shorter last step through the same
        # coefficients is no step of a k-step method, and its error is O(1e-2)
        method = read_method(BENCH_OPT_234)
        dt, tf = 0.93 * 4.0 / 42, 4.0
        record = run(vdp_problem(), method, dt, tf)
        assert record.final_error < 1e-5
        np.testing.assert_allclose(np.diff(record.times), dt, rtol=0, atol=1e-12)
        assert record.times[-1] <= tf

    def test_accumulated_time_lands_on_tf(self):
        # 42 steps of 4/42 sum to 4.000000000000003 in floating point; a
        # running sum of 0.01 reaches 99.99000000001425 after 9,999 steps,
        # and one more would pass tf + 1e-12
        for dt, tf, steps in [(4.0 / 42, 4.0, 42), (0.01, 100.0, 10_000)]:
            record = run(vdp_problem(), ssprk33(), dt, tf)
            assert len(record.times) == 1 + steps
            assert record.times[-1] == tf

    def test_trajectory_stops_at_last_whole_step(self):
        problem = advection_upwind()
        n, t_end = pdelab._whole_steps(0.003, 0.1, 1)
        states = list(pdelab._trajectory(problem, ssprk33(), 0.003, n))
        times = [j * 0.003 for j in range(len(states) - 1)] + [t_end]
        assert n == 33 and len(states) == 1 + n  # 0.1 is 33.3 steps of 0.003
        assert times[-1] <= 0.1
        steps = np.diff(times)
        np.testing.assert_allclose(steps, 0.003, atol=1e-12)

    def test_two_step_method_runs(self):
        problem = advection_upwind()
        m = gen_second_order(2, 2)
        record = run(problem, m, 0.5 * problem.dt_fe, 0.1)
        assert len(record.times) == len(record.monitors["tv"])

    def test_horizon_shorter_than_startup_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            run(advection_upwind(), gen_second_order(2, 3), 0.05, 0.08)
        # start-up ends at 0.1 < tf = 0.12, but a whole step would end at 0.15
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        with pytest.raises(ValueError, match=re.escape("tf must be at least k*dt")):
            run(advection_upwind(), gen_second_order(2, 3), 0.05, 0.12)
        # tf/dt overflows to -inf, which has no floor
        with pytest.raises(ValueError, match=re.escape("tf must be at least k*dt")):
            run(advection_upwind(), gen_second_order(2, 3), 1e-10, -1e300)

    @pytest.mark.parametrize("dt, tf", [(np.inf, 0.1), (np.nan, 0.1), (0.003, np.inf),
                                        (0.003, np.nan)])
    def test_non_finite_or_zero_step_and_horizon_rejected(self, monkeypatch, dt, tf):
        # a missing check fails at the first step instead of looping
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        with pytest.raises(ValueError, match="must be"):
            run(advection_upwind(), ssprk33(), dt, tf)

    @pytest.mark.parametrize("problem, dt, tf, steps", [(advection_upwind, 1e-12, 1.0, "1e+12"),
                                                        (buckley_leverett, 1e-10, 0.01, "1e+08")])
    def test_too_many_steps_rejected_before_startup(self, monkeypatch, problem, dt, tf, steps):
        # a missing guard fails at the first step instead of running for hours
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        message = f"the run needs {steps} steps, more than MAX_STEPS = {MAX_STEPS:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(problem(), gen_second_order(2, 2), dt, tf)

    def test_horizon_past_the_exact_solution_fails_before_stepping(self, monkeypatch):
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        with pytest.raises(ValueError, match=f"covers 0 <= t <= {VDP_MAX_HORIZON:g}; "
                                             f"t = 2000 is outside it"):
            run(vdp_problem(), ssprk33(), 0.01, 2000.0)

    def test_finite_blow_up_has_an_infinite_error_and_no_warning(self):
        # SSPRK(3,3) at dt = 6.3 dx: every state stays finite, but the last
        # one's norm overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(advection_upwind(), ssprk33(), 0.0625, 4.0)
        assert record.final_error == math.inf

    def test_final_error_reads_the_exact_solution_at_tf_once(self):
        problem = vdp_problem()
        # the second run ends at 4.0; u(4.2) would need a reference to t = 8
        for dt, tf in [(4.0 / 42, 4.0), (0.5, 4.2)]:
            calls = []

            def exact(t):
                calls.append(t)
                return problem.exact(t)

            record = run(dataclasses.replace(problem, exact=exact), ssprk33(), dt, tf)
            assert sorted(calls) == [0.0, 4.0]  # startup sample and the last step, each once
            n, t = pdelab._whole_steps(dt, tf, 1)
            *_, u = pdelab._trajectory(problem, ssprk33(), dt, n)
            assert t == 4.0
            assert record.final_error == float(np.linalg.norm(u - problem.exact(4.0)))


class TestMaxStableStep:
    def test_ssprk33_advection_tvd(self):
        problem = advection_upwind()
        res = max_stable_step(problem, ssprk33(), prop="tvd")
        # observed threshold published as 1.000 in units of dx
        assert res.normalized == pytest.approx(1.000, abs=5e-3)

    def test_ssprk33_advection_positivity_exceeds_tvd(self):
        problem = advection_upwind()
        res = max_stable_step(problem, ssprk33(), prop="positivity")
        # observed threshold published as 1.028 in units of dx
        assert res.normalized == pytest.approx(1.028, abs=5e-3)

    def test_observed_at_least_theoretical(self):
        problem = advection_upwind()
        for m in [forward_euler(), ssprk33(), gen_second_order(2, 2)]:
            res = max_stable_step(problem, m, prop="tvd")
            assert res.dt_max >= res.theoretical - res.resolution

    @pytest.mark.parametrize("kwargs", [
        dict(resolution=0.0), dict(resolution=np.nan), dict(resolution=np.inf),
        dict(resolution=-1e-3), dict(tf=np.nan), dict(tf=0.0), dict(tf=np.inf), dict(tf=-1.0),
    ])
    def test_non_finite_or_zero_resolution_and_horizon_rejected(self, monkeypatch, kwargs):
        # a missing check fails at the first probe's startup instead of bisecting forever
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        message = {"resolution": "resolution must be positive and below the bracket",
                   "tf": "tf must be positive and finite"}[next(iter(kwargs))]
        with pytest.raises(ValueError, match=f"^{message}"):
            max_stable_step(advection_upwind(), ssprk33(), "tvd", **kwargs)

    def test_resolution_at_the_bracket_rejected(self, monkeypatch):
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        problem = advection_upwind()
        with pytest.raises(ValueError, match="^resolution must be positive and below the bracket "
                                             "20\\*dt_fe = 0.19802$"):
            max_stable_step(problem, ssprk33(), "tvd", resolution=20.0 * problem.dt_fe)

    def test_tiny_resolution_ends_on_neighbouring_floats(self, monkeypatch):
        # the property holds up to 0.3*dt_fe; a bracket there stops
        # shrinking at about 1e-18, far above the resolution
        problem = advection_upwind()
        steps = []

        def fake_trajectory(problem, method, dt, n):
            steps.append(dt)
            if len(steps) > 200:
                pytest.fail("the bisection did not end")
            # total variation 1, then 1 or 2
            yield np.array([0.0, 0.5])
            yield np.array([0.0, 0.5 if dt <= 0.3 * problem.dt_fe else 1.0])

        monkeypatch.setattr(pdelab, "_trajectory", fake_trajectory)
        res = max_stable_step(problem, ssprk33(), "tvd", resolution=1e-300)
        assert res.dt_max == 0.3 * problem.dt_fe
        assert len(steps) < 70

    @pytest.mark.parametrize("problem, prop", [
        (vdp_problem, "tvd"), (vdp_problem, "positivity"), (advection_upwind, "entropy"),
    ])
    def test_property_without_monitor_rejected_before_any_run(self, monkeypatch, problem,
                                                              prop):
        # van der Pol has no monitors; an unknown property has none on any problem
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        problem = problem()
        with pytest.raises(ValueError, match=f"problem '{problem.name}' has no monitor for "
                                             f"property '{prop}'"):
            max_stable_step(problem, ssprk33(), prop)

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            max_stable_step(advection_upwind(), forward_euler(), prop="entropy")

    @pytest.mark.parametrize("make, own, other", [(advection_upwind, "exact", "rk3_substeps"),
                                                  (buckley_leverett, "rk3_substeps", "exact")],
                             ids=["advection", "buckley"])
    def test_startup_mode_must_name_the_problems_own(self, monkeypatch, make, own, other):
        # the keyword stays for the benchmark's step-search workload: None and
        # the problem's own start-up give one result; any other value fails
        # before any run
        method = gen_second_order(3, 2)
        res = max_stable_step(make(), method, "tvd")
        assert max_stable_step(make(), method, "tvd", startup_mode=own) == res
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        for mode in (other, "magic"):
            with pytest.raises(ValueError, match=f"starts up by '{own}', not '{mode}'$"):
                max_stable_step(make(), method, "tvd", startup_mode=mode)

    def test_default_horizon_and_startup(self):
        problem, method = buckley_leverett(), gen_second_order(3, 2)
        C = ssp_coefficient(to_spijker(method))
        tf = max(0.125, 12.0 * method.k * max(C, 1.0) * problem.dt_fe)
        explicit = max_stable_step(problem, method, "tvd", tf=tf, startup_mode="rk3_substeps")
        assert max_stable_step(problem, method, "tvd") == explicit

    def test_searches_share_start_ups_and_keep_their_results(self):
        # k = 1..3 and p = 2..4; one problem serves every method and property
        library = [ssprk33(), gen_second_order(2, 2), gen_second_order(4, 3),
                   read_method(BENCH_OPT_234)]

        def counting(calls):
            problem = buckley_leverett()

            def rhs(u):
                calls.append(None)
                return problem.rhs(u)

            return dataclasses.replace(problem, rhs=rhs)

        shared_calls, fresh_calls = [], []
        shared = counting(shared_calls)
        for method in library:
            for prop in ("tvd", "positivity"):
                fresh = max_stable_step(counting(fresh_calls), method, prop)
                assert max_stable_step(shared, method, prop) == fresh, (method.name, prop)
        assert len(shared_calls) < len(fresh_calls)

    def test_infinite_coefficient_gets_a_finite_horizon(self):
        # C = inf for a method that never uses f; the horizon stops at
        # 12 steps of the largest probe, 20*dt_fe
        problem = advection_upwind(N=11)
        still = MSRKMethod(s=1, k=1, D=[[1.0]], Ahat=np.zeros((1, 0)), A=[[0.0]],
                           theta=[1.0], bhat=[], b=[0.0])
        res = max_stable_step(problem, still, "tvd")
        assert res.theoretical == np.inf
        assert res.dt_max == 20.0 * problem.dt_fe

    @staticmethod
    def _failing_probe(factor):
        """SSPRK(3,3) on advection at dt = factor*dt_fe, the states of a full
        run at dt to tf = 2, and the state ``last`` where the later of TVD and
        positivity fails, where the joint probe stops."""
        problem, method, tf = advection_upwind(), ssprk33(), 2.0
        dt = factor * problem.dt_fe
        whole = pdelab._whole_steps(dt, tf, method.k)[0]
        states = list(pdelab._trajectory(problem, method, dt, whole))
        tv = [tv_seminorm(u) for u in states]
        low = [positivity_min(u) for u in states]
        last = max(next(n for n in range(len(tv)) if not _two_branch_holds(v[: n + 1], prop, 1))
                   for v, prop in [(tv, "tvd"), (low, "positivity")])
        return problem, method, tf, dt, states, last

    def test_failing_probe_stops_at_first_violation(self, monkeypatch):
        # at 20*dt_fe both properties break at the first step; a full run
        # at that dt takes every step of the horizon
        problem, method, tf, dt, states, first = self._failing_probe(20.0)
        probe_steps = []

        def counting(method, history, history_rhs, rhs, h):
            probe_steps.append(h)
            return msrk_step(method, history, history_rhs, rhs, h)

        monkeypatch.setattr(pdelab, "msrk_step", counting)
        max_stable_step(problem, method, "tvd", tf=tf)
        assert probe_steps.count(dt) == first - method.k + 1
        assert probe_steps.count(dt) < len(states) - method.k

    def test_a_stopped_probe_computes_no_rhs_at_its_last_state(self):
        # at 1.1*dt_fe TVD breaks at step 1 and positivity at step 4
        problem, method, tf, dt, states, last = self._failing_probe(1.1)
        assert last == 4
        seen = []

        def rhs(u):
            seen.append(u.tobytes())
            return problem.rhs(u)

        counted = dataclasses.replace(problem, rhs=rhs)
        assert pdelab._holds(counted, method, ("tvd", "positivity"), dt, tf) == (False, False)
        steps = last - method.k + 1
        # the start state's rhs, s - 1 = 2 stages per step, and the rhs of
        # every new state but the last, which no step follows
        assert len(seen) == 1 + 2 * steps + steps - 1
        assert states[last].tobytes() not in seen

    @pytest.mark.parametrize("make", [advection_upwind, buckley_leverett])
    def test_each_property_as_with_its_monitor_alone(self, make):
        # a problem with one monitor probes its property alone throughout
        problem = make()
        for method in [ssprk33(), gen_second_order(3, 2), read_method(BENCH_OPT_234)]:
            for prop, monitor in [("tvd", "tv"), ("positivity", "min")]:
                alone = dataclasses.replace(
                    problem, monitors={monitor: problem.monitors[monitor]})
                assert (max_stable_step(problem, method, prop)
                        == max_stable_step(alone, method, prop)), (method.name, prop)

    @pytest.mark.parametrize("make, method", [(advection_upwind, ssprk33()),
                                              (buckley_leverett, gen_second_order(3, 2))],
                             ids=["advection", "buckley"])
    def test_other_monitor_unread_once_the_answers_part(self, monkeypatch, make, method):
        reads = []

        def counted(name, fn):
            def monitor(u):
                reads.append(name)
                return fn(u)
            return monitor

        probes, run_probe = [], pdelab._holds

        def holds(problem, method, props, *args):
            reads.clear()
            answers = run_probe(problem, method, props, *args)
            probes.append((props, answers, set(reads)))
            return answers

        monkeypatch.setattr(pdelab, "_holds", holds)
        for first, second in [("tvd", "positivity"), ("positivity", "tvd")]:
            base = make()
            problem = dataclasses.replace(
                base, monitors={name: counted(name, fn) for name, fn in base.monitors.items()})
            for prop in (first, second):
                other = "min" if prop == "tvd" else "tv"
                probes.clear()
                max_stable_step(problem, method, prop)
                parted = next((i for i, (_, answers, _) in enumerate(probes)
                               if len(set(answers)) > 1), None)
                if prop == first:  # its search runs the joint probes up to where they part
                    assert parted is not None
                    assert all(props == ("tvd", "positivity") for props, _, _ in
                               probes[: parted + 1])
                else:  # the second reads them, and runs only its own probes after
                    assert parted is None
                    assert probes
                after = probes if parted is None else probes[parted + 1:]
                assert all(props == (prop,) and other not in read for props, _, read in after)

    @pytest.mark.parametrize("watched", [("tv", "min"), ("tv",), ("min",)])
    def test_remembered_probes_are_keyed_by_all_a_run_depends_on(self, watched):
        # every search on a shared problem matches a fresh problem's; with
        # one monitor, a search remembers every probe, not just a prefix
        def make(build):
            problem = build()
            return dataclasses.replace(problem,
                                       monitors={m: problem.monitors[m] for m in watched})

        props = [p for p, m in pdelab._PROPERTY_MONITORS.items() if m in watched]
        so2 = gen_second_order(3, 2)
        higher = dataclasses.replace(so2, claimed_order=4)  # more rk3 substeps per step
        shared = make(buckley_leverett)
        for method in [so2, higher]:
            for prop in props:
                fresh = max_stable_step(make(buckley_leverett), method, prop)
                assert max_stable_step(shared, method, prop) == fresh, (method.claimed_order, prop)

        # SO2(2,2) differs from SO2(3,2) in its coefficients alone at tf = 0.1
        shared = make(advection_upwind)
        for method in [so2, gen_second_order(2, 2)]:
            for kwargs in [dict(), dict(tf=0.1)]:
                for prop in props:
                    fresh = max_stable_step(make(advection_upwind), method, prop, **kwargs)
                    assert (max_stable_step(shared, method, prop, **kwargs)
                            == fresh), (method.name, kwargs, prop)

    def test_replaced_problem_remembers_no_probe(self):
        # the negative entry breaks positivity at every step size
        so2, original = gen_second_order(3, 2), buckley_leverett()
        u0 = np.array(original.u0)
        u0[0] = -0.25
        max_stable_step(original, so2, "tvd")
        negative = dataclasses.replace(original, u0=u0)
        res = max_stable_step(negative, so2, "positivity")
        assert res == max_stable_step(dataclasses.replace(buckley_leverett(), u0=u0), so2,
                                      "positivity")
        assert res.dt_max == 0.0

    def test_remembered_probes_are_shared_by_either_spelling_of_the_default_startup(
            self, monkeypatch):
        # None stands for rk3_substeps on Buckley-Leverett, which has no exact solution
        so2, runs, run_probe = gen_second_order(3, 2), [], pdelab._holds

        def holds(*args):
            runs.append(args)
            return run_probe(*args)

        monkeypatch.setattr(pdelab, "_holds", holds)
        fresh = max_stable_step(buckley_leverett(), so2, "positivity")
        for mode in (None, "rk3_substeps"):
            problem = buckley_leverett()
            max_stable_step(problem, so2, "tvd")
            runs.clear()
            assert max_stable_step(problem, so2, "positivity", startup_mode=mode) == fresh, mode
            assert len(runs) == 13, mode


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5),
       st.sampled_from([("tvd",), ("positivity",), ("tvd", "positivity"), ("positivity", "tvd")]),
       st.lists(st.sampled_from([-1.0, -2e-12, -1e-12, 0.0, 1e-12, 2e-12, 0.5, 1.0])
                | st.floats(-1.0, 2.0), max_size=30))
def test_property_rule_matches_two_branch_formula(k, props, values):
    # the stubbed run yields the monitor values themselves as states, as
    # many as a run to tf = len(values) - 1 in steps of 1 has, and none
    # after the state where the last asked property fails
    problem = dataclasses.replace(advection_upwind(N=3), monitors={"tv": float, "min": float})
    fails = [next((n for n in range(len(values))
                   if not _two_branch_holds(values[: n + 1], prop, k)), None) for prop in props]
    last = len(values) - 1 if None in fails else max(fails)

    def states(*args, **kwargs):
        for n, v in enumerate(values):
            if n > last:
                pytest.fail("a state was asked for after every property had failed")
            yield v

    with mock.patch.object(pdelab, "_trajectory", states):
        holds = pdelab._holds(problem, types.SimpleNamespace(k=k), props, 1.0,
                              float(len(values) - 1))
    # a run without a full step after start-up fails
    assert holds == tuple(len(values) > k and _two_branch_holds(values, prop, k)
                          for prop in props)


class TestConvergence:
    def test_studies_share_the_reference(self, monkeypatch):
        # the first study integrates the reference and the second reads it
        pdelab._vdp_reference.cache_clear()
        first = vdp_convergence_study(ssprk33(), tf=0.5)
        assert [dt for dt, _ in first] == [0.5 / (N - 1) for N in (15, 19, 23, 27, 31, 35, 39, 43)]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
        assert vdp_convergence_study(ssprk33(), tf=0.5) == first
        assert calls == []

    def test_reference_value_ignores_earlier_times(self):
        # t = 9 reads a reference with the longer horizon 16; u(0.71)
        # reads the horizon-4 one whether or not t = 9 came first
        exact = vdp_problem().exact
        pdelab._vdp_reference.cache_clear()
        alone = exact(0.71)
        pdelab._vdp_reference.cache_clear()
        exact(9.0)
        assert np.array_equal(exact(0.71), alone)

    @staticmethod
    def _outside_rejected(monkeypatch, t):
        # fails before DOP853 integrates anything, with the one message for the domain
        pdelab._vdp_reference.cache_clear()
        monkeypatch.setattr(scipy.integrate, "solve_ivp", _unreachable)
        message = (f"the van der Pol reference covers 0 <= t <= {VDP_MAX_HORIZON:g}; "
                   f"t = {t:g} is outside it")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vdp_problem().exact(t)

    @pytest.mark.parametrize("t", [2.0 * VDP_MAX_HORIZON, 1e299, np.inf])
    def test_reference_past_its_horizon_rejected(self, monkeypatch, t):
        self._outside_rejected(monkeypatch, t)

    @pytest.mark.parametrize("t", [-1e-3, -1.0, -np.inf])
    def test_reference_before_its_start_rejected(self, monkeypatch, t):
        # DOP853's dense output would extrapolate back from t = 0, or warn and give nan
        self._outside_rejected(monkeypatch, t)

    def test_reference_at_nan_rejected(self, monkeypatch):
        self._outside_rejected(monkeypatch, np.nan)

    def test_the_problem_and_study_are_fixed(self):
        # one stiffness, 10 (test_vdp_rhs), and one set of step counts (the test above)
        assert list(inspect.signature(vdp_problem).parameters) == []
        assert list(inspect.signature(vdp_convergence_study).parameters) == ["method", "tf"]
        assert vdp_problem().dt_fe == 1.0

    def test_ssprk33_order_three_on_vdp(self):
        errors = vdp_convergence_study(ssprk33(), tf=2.0)
        assert convergence_order(errors) == pytest.approx(3.0, abs=0.3)

    def test_so2_order_two_on_vdp(self):
        errors = vdp_convergence_study(gen_second_order(2, 2), tf=2.0)
        assert convergence_order(errors) == pytest.approx(2.0, abs=0.3)
