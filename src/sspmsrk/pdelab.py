"""Test problems, time stepping, monitors, and observed-step searches.

The problems are the van der Pol oscillator, first-order upwind
advection of a step function, and a flux-limited Buckley-Leverett
scheme.  Van der Pol errors are measured against DOP853 dense output
at rtol = atol = 1e-13 (scipy's ``solve_ivp``) up to t = VDP_MAX_HORIZON.
A run counts its whole steps of dt once, as an integer n, before its
start-up; state j sits at j*dt, and its error is read at its last whole
step, not at tf.  A problem's ``u0`` is read-only.  It starts up from its
exact solution when it has one, else by SSPRK(3,3) substeps, which it
keeps per substep and count for every later run.  Runs
record convex monitor values (total variation, minimum entry) at every
step.  A bisection search over the step size locates the largest step for
which a monotonicity property holds over a whole run.  A probe's run
reads each property's monitor until that property fails and stops once
every one has failed, so one run answers every property of the problem;
until their answers differ, the problem keeps them for the other
properties' searches, which probe the same step sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .methods import MSRKMethod, _bisect, _spijker_step, ssp_coefficient, ssprk33, to_spijker

__all__ = [
    "SemiDiscretization",
    "RunRecord",
    "StepSearchResult",
    "msrk_step",
    "startup",
    "vdp_problem",
    "advection_upwind",
    "buckley_leverett",
    "tv_seminorm",
    "positivity_min",
    "run",
    "max_stable_step",
    "vdp_convergence_study",
]

MONOTONICITY_SLACK = 1e-12
#: the van der Pol reference ends here; DOP853 takes about 0.7 s to reach it
VDP_MAX_HORIZON = 1024.0
_VDP_U0 = (0.5, 0.0)
#: a run of more steps than this fails before its start-up
MAX_STEPS = 10**7
#: the one-step method of the start-up of a problem without an exact solution
_SSPRK33 = ssprk33()


def tv_seminorm(u: NDArray) -> float:
    """Periodic total variation: sum of |u_{j+1} - u_j| with wraparound."""
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        raise ValueError("u must be nonempty")
    d = np.empty_like(u)  # u_{j+1} - u_j
    np.subtract(u[1:], u[:-1], out=d[:-1])
    d[-1] = u[0] - u[-1]
    return float(np.abs(d).sum())


def positivity_min(u: NDArray) -> float:
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        raise ValueError("u must be nonempty")
    return float(u.min())


@dataclass(frozen=True)
class SemiDiscretization:
    """A semi-discretized problem u' = rhs(u) with its forward-Euler SSP bound.  ``u0`` is
    a read-only copy and ``dim`` its size; ``startup`` keeps the problem's SSPRK(3,3)
    start-ups per substep and count, ``max_stable_step`` its joint probes' answers, and
    ``dataclasses.replace`` keeps none of either."""

    name: str
    rhs: Callable[[NDArray], NDArray]
    dt_fe: float
    u0: NDArray
    monitors: dict[str, Callable[[NDArray], float]] = field(default_factory=dict)
    exact: Optional[Callable[[float], NDArray]] = None
    dx: Optional[float] = None
    dim: int = field(init=False)
    _startups: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _probes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt_fe <= 0:
            raise ValueError("dt_fe must be positive")
        object.__setattr__(self, "u0", np.array(self.u0, dtype=float))
        self.u0.flags.writeable = False
        object.__setattr__(self, "dim", self.u0.size)


@dataclass
class RunRecord:
    """Per-step monitor trace of one run, including the startup states."""

    times: list[float]
    monitors: dict[str, list[float]]
    final_error: Optional[float] = None


@dataclass(frozen=True)
class StepSearchResult:
    """``horizon_limited``: the smallest failing step failed because the
    horizon left no whole step after start-up, not because of the
    property, so ``dt_max`` is about tf/k and not the property's limit."""

    dt_max: float
    normalized: float
    theoretical: float
    resolution: float
    horizon_limited: bool


class RunAbortedError(RuntimeError):
    """A run produced a non-finite state."""


def _check_step_count(steps: float) -> None:
    if steps > MAX_STEPS:
        raise ValueError(f"the run needs {steps:.4g} steps, more than MAX_STEPS = {MAX_STEPS:g}")


def _whole_steps(dt: float, tf: float, k: int) -> tuple[int, float]:
    """(n, t_end): the number n of whole steps of dt after the k start-up
    states, ending at or before tf, and the time of the last state, which is
    tf when within ``tol`` of it.  n < 1 leaves no step after the start-up."""
    _check_step_count((tf - (k - 1) * dt) / dt)  # before the floor, which overflows
    tol = min(1e-12, 1e-3 * dt)  # times this close are equal; below dt = 1e-9, relative to dt
    last = math.floor(max(tf + tol, 0.0) / dt)  # a negative tf leaves no step
    return last - k + 1, tf if abs(last * dt - tf) <= tol else last * dt


def msrk_step(
    method: MSRKMethod,
    history: list[NDArray],
    history_rhs: list[NDArray],
    rhs: Callable[[NDArray], NDArray],
    dt: float,
):
    """One step of the method: stages y_2..y_s, then the new step value.

    ``history`` holds u^{n-k+1}..u^n in order with matching rhs values
    (sequences or (k, dim) arrays).  A state is a 1-D array of dim
    entries; a scalar or multi-axis state raises ValueError.  Returns
    (u_next, stage_rhs_values); together with the subsequent evaluation
    at u_next this costs exactly s evaluations per step.
    """
    x, fx = np.asarray(history), np.asarray(history_rhs)
    if x.ndim != 2 or len(x) != method.k or fx.shape != x.shape:
        raise ValueError(f"history must hold k={method.k} 1-D states of one length, and their rhs")
    return _spijker_step(to_spijker(method), x, fx, rhs, dt)


def startup(problem: SemiDiscretization, dt: float, k: int, p: int) -> list[NDArray]:
    """The k initial states u(t_0)..u(t_{k-1}) a k-step method needs.

    A problem with an exact solution samples it.  One without runs
    SSPRK(3,3) (``_steps``) for (k-1)*nsub substeps dt/nsub, at most dt**(p/3)
    and 0.9*dt_fe so the startup states inherit the forward-Euler monotonicity
    properties; a non-finite substep raises RunAbortedError naming its interval,
    and more than MAX_STEPS substeps (or a substep that underflows to 0) raise
    ValueError.  The problem keeps the states, read-only, under (dt/nsub, nsub),
    on which alone the substeps depend, for any later call of any method or
    property; a call that needs more of them continues the run from the last
    kept state, and keeps the longer run only if it completes.  For the
    substeps on a problem with an exact solution, pass
    ``dataclasses.replace(problem, exact=None)``.  Raises ValueError, before
    any work, unless 0 < dt < inf and k >= 1.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if k < 1:
        raise ValueError("k must be at least 1")
    if problem.exact is not None:
        return [problem.exact(j * dt) for j in range(k)]
    if k == 1:
        return [problem.u0]
    substep = min(dt ** (p / 3.0), 0.9 * problem.dt_fe)
    _check_step_count((k - 1) * dt / substep if substep > 0.0 else math.inf)
    nsub = max(1, math.ceil(dt / substep))
    key = (dt / nsub, nsub)
    states = list(problem._startups.get(key, [problem.u0]))
    if len(states) < k:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # RunAbortedError names a blow-up
                more = (k - len(states)) * nsub
                for j, u in enumerate(_steps(problem, _SSPRK33, states[-1:], dt / nsub, more), 1):
                    if j % nsub == 0:
                        u.flags.writeable = False
                        states.append(u)
        except RunAbortedError as exc:
            # states holds u0 and the end of every interval before the failing one
            raise RunAbortedError(f"non-finite state during start-up, in interval "
                                  f"{len(states)} of 1..{k - 1}") from exc
        problem._startups[key] = states
    return states[:k]


def _vdp_rhs(u: NDArray, eps: float) -> NDArray:
    return np.array([u[1], (-u[0] + (1.0 - u[0] ** 2) * u[1]) / eps])


@functools.lru_cache(maxsize=8)
def _vdp_reference(eps: float, horizon: float):
    """Dense output of DOP853 at rtol = atol = 1e-13 on [0, horizon] from _VDP_U0."""
    # imported here: only van der Pol needs scipy.integrate, which loads
    # scipy.optimize and scipy.linalg; a fresh `import numpy, scipy.integrate`
    # takes 0.62 s against 0.16 s for numpy alone (2-core x86-64, medians of 9)
    from scipy.integrate import solve_ivp

    return solve_ivp(lambda t, u: _vdp_rhs(u, eps), (0.0, horizon), _VDP_U0, method="DOP853",
                     rtol=1e-13, atol=1e-13, dense_output=True).sol


def vdp_problem(eps: float = 10.0) -> SemiDiscretization:
    """The van der Pol oscillator u1' = u2, u2' = (-u1 + (1-u1^2) u2)/eps from (0.5, 0)."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")

    def exact(t: float) -> NDArray:
        if math.isnan(t):  # ±inf fall past either end of the reference below
            raise ValueError("the van der Pol reference needs a finite t; t = nan is not")
        if not t <= VDP_MAX_HORIZON:
            raise ValueError(f"the van der Pol reference ends at t = {VDP_MAX_HORIZON:g}; "
                             f"t = {t:g} is past it")
        if not t >= 0.0:
            raise ValueError(f"the van der Pol reference starts at t = 0; t = {t:g} is before it")
        # the horizon, the smallest 4*2^m >= t, depends on t alone, and so does u(t)
        return _vdp_reference(eps, 4.0 * 2.0 ** math.ceil(math.log2(max(t / 4.0, 1.0))))(t)

    # dt_fe is nominal: the oscillator carries no convex monitor of interest
    return SemiDiscretization(
        name="vdp", rhs=functools.partial(_vdp_rhs, eps=eps), dt_fe=eps / 10.0,
        u0=np.array(_VDP_U0), monitors={}, exact=exact,
    )


def advection_upwind(N: int = 101) -> SemiDiscretization:
    """Periodic advection u_t + u_x = 0 with upwind differencing and a step IC.

    Forward Euler is TVD and positive up to dt_fe = dx on this scheme.
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    dx = 1.0 / N
    x = dx * np.arange(N)

    def ic(y):
        y = np.mod(y, 1.0)
        return np.where((y >= 0.0) & (y <= 0.5), 1.0, 0.0)

    left = np.roll(np.arange(N), 1)  # j - 1 on the periodic grid

    def rhs(u):
        return (u - u[left]) / -dx  # -(u_j - u_{j-1})/dx

    def exact(t):
        return ic(x - t)

    return SemiDiscretization(
        name="advection", rhs=rhs, dt_fe=dx, u0=ic(x),
        monitors={"tv": tv_seminorm, "min": positivity_min},
        exact=exact, dx=dx,
    )


def _koren_half_phi(theta: NDArray) -> NDArray:
    """max(0, min(theta, (0.5 + theta)/3, 1)): as halving is exact, the bits of half the
    Koren limiter max(0, min(2 theta, (1 + 2 theta)/3, 2)).  The operand order fixes the
    sign of a zero."""
    phi = np.minimum(theta, (0.5 + theta) / 3.0)
    np.minimum(phi, 1.0, out=phi)
    return np.maximum(0.0, phi, out=phi)


def buckley_leverett(N: int = 100) -> SemiDiscretization:
    """Buckley-Leverett flux with a Koren-limited conservative upwind scheme.

    f(u) = u^2 / (u^2 + a(1-u)^2), a = 1/3, is nondecreasing on [0, 1], so
    the interface flux uses the limited left value.  ``dt_fe = dx/4`` is
    nominal: max f' exceeds 2, so forward Euler is TVD only up to
    (2/max f')*dx/4, about 0.9067*dx/4.
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    a = 1.0 / 3.0
    dx = 1.0 / N
    u0 = np.where(dx * np.arange(N) >= 0.5, 0.5, 0.0)
    left, right = np.roll(np.arange(N), 1), np.roll(np.arange(N), -1)  # j - 1 and j + 1

    def rhs(u):
        back = u - u[left]  # u_j - u_{j-1}
        du = back[right]  # u_{j+1} - u_j
        # smoothness ratio, 0 where |du| <= 1e-14; the limiter of 0 is 0 on those faces
        theta = np.divide(back, du, out=np.zeros(N), where=np.abs(du) > 1e-14)
        u_face = u + _koren_half_phi(theta) * du  # left value at interface j+1/2
        square = u_face**2
        F = square / (square + a * (1.0 - u_face) ** 2)  # f(u_face)
        return (F - F[left]) / -dx  # -(F_{j+1/2} - F_{j-1/2})/dx

    return SemiDiscretization(
        name="buckley", rhs=rhs, dt_fe=dx / 4.0, u0=u0,
        monitors={"tv": tv_seminorm, "min": positivity_min},
        dx=dx,
    )


def run(problem: SemiDiscretization, method: MSRKMethod, dt: float, tf: float) -> RunRecord:
    """Integrate in whole steps of dt, sampling every monitor at every state.

    The run, and ``final_error``, end at the last whole step at or before
    tf: a shorter step of a k-step method is not a step of the method.
    State j is at j*dt; the last is at tf when within ``tol`` of it.  A tf
    that leaves no whole step after start-up raises ValueError.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(tf):
        raise ValueError("tf must be finite")
    n, t_end = _whole_steps(dt, tf, method.k)
    if n < 1:
        raise ValueError("tf must be at least k*dt, so that a whole step follows the start-up")
    # an exact solution that cannot reach the last step fails before any step
    u_exact = problem.exact(t_end) if problem.exact is not None else None
    monitors = {name: [] for name in problem.monitors}
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises, or its error is inf
        for u in _trajectory(problem, method, dt, n):
            for name, fn in problem.monitors.items():
                monitors[name].append(fn(u))
        final_error = None if u_exact is None else float(np.linalg.norm(u - u_exact))
    times = [j * dt for j in range(method.k + n - 1)] + [t_end]
    return RunRecord(times=times, monitors=monitors, final_error=final_error)


def _trajectory(problem, method, dt, n):
    """Each startup state, then the state after each of n whole steps of dt."""
    start = startup(problem, dt, method.k, method.claimed_order)
    yield from start
    yield from _steps(problem, method, start, dt, n)


def _steps(problem, method, start, dt, n):
    """The state after each of n steps of dt from the k states ``start``."""
    # (k, dim) histories, shifted in place after each step
    states = np.array(start)
    rhs_vals = np.array([problem.rhs(u) for u in states])
    for step_index in range(1, n + 1):
        u_next, _ = msrk_step(method, states, rhs_vals, problem.rhs, dt)
        if not np.isfinite(u_next).all():
            raise RunAbortedError(f"non-finite state at step {step_index}")
        states[:-1] = states[1:]
        states[-1] = u_next
        yield u_next  # a probe that stops here never pays for the rhs at u_next
        rhs_vals[:-1] = rhs_vals[1:]
        rhs_vals[-1] = problem.rhs(u_next)


#: the monitor each property of ``max_stable_step`` reads
_PROPERTY_MONITORS = {"tvd": "tv", "positivity": "min"}


def _holds(problem, method, props, dt, tf) -> tuple[bool, ...]:
    """Whether each of ``props`` holds in one run to tf: positivity at every
    state, TVD from the first step on against the max over the k states
    before.  Reads each property's monitor until that property fails, and
    stops once every one has failed; a run with no whole step after
    start-up, or a non-finite state, fails them all.
    """
    k = method.k
    n = _whole_steps(dt, tf, k)[0]
    if n < 1:  # horizon too short for startup plus one whole step
        return (False,) * len(props)
    monitors = [problem.monitors[_PROPERTY_MONITORS[prop]] for prop in props]
    values = [[] for _ in props]
    holding = [True] * len(props)
    states = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # RunAbortedError names a blow-up
            for u in _trajectory(problem, method, dt, n):
                for i, (prop, seen) in enumerate(zip(props, values)):
                    if holding[i]:
                        v = monitors[i](u)
                        holding[i] = (v >= -MONOTONICITY_SLACK if prop == "positivity" else
                                      states < k or not v > max(seen[-k:]) + MONOTONICITY_SLACK)
                        seen.append(v)
                if not any(holding):
                    break
                states += 1
    except RunAbortedError:
        return (False,) * len(props)
    return tuple(holding)


def max_stable_step(
    problem: SemiDiscretization,
    method: MSRKMethod,
    prop: str = "tvd",
    resolution: Optional[float] = None,
    tf: Optional[float] = None,
    startup_mode: Optional[str] = None,
) -> StepSearchResult:
    """Largest dt for which the property holds at every step of a run to tf.

    Bisection over [0, 20*dt_fe].  Each probe asks ``_holds``, whose run,
    like every run, takes whole steps of dt only and ends at the last one
    at or before tf, so the comparison against C*dt_fe is clean.
    The default horizon max(0.125, 12*k*max(C, 1)*dt_fe) makes a run at
    the theoretical step C*dt_fe last at least 12*k steps; C*dt_fe is
    capped at 20*dt_fe, so a method with C = inf gets a finite horizon.

    Every property's search starts on the same bracket, so two of them
    probe the same dt until their answers first differ.  Up to and
    including that probe, a probe asks every property the problem has a
    monitor for in one run, and the problem keeps the answers under the
    method's [S | T], k, claimed order, tf and dt, on which alone the run
    depends; a later search reads them instead of running again.  After
    it, the search asks its own property alone.

    The problem fixes its start-up (see ``startup``).  ``startup_mode``
    stays only because the benchmark's step-search workload passes it: it
    must be None or that start-up's name, "exact" for a problem with an
    exact solution and "rk3_substeps" otherwise.
    Raises ValueError, before any run, when ``startup_mode`` is another
    value, when the problem has no monitor for ``prop`` or when
    ``resolution`` is not below the bracket, which would leave the
    bisection no probe.
    """
    own_startup = "exact" if problem.exact is not None else "rk3_substeps"
    if startup_mode not in (None, own_startup):
        raise ValueError(f"problem {problem.name!r} starts up by {own_startup!r}, "
                         f"not {startup_mode!r}")
    if _PROPERTY_MONITORS.get(prop) not in problem.monitors:
        raise ValueError(f"problem {problem.name!r} has no monitor for property {prop!r}")
    if resolution is None:
        resolution = 0.001 * problem.dt_fe
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")
    hi = 20.0 * problem.dt_fe
    if resolution >= hi:
        raise ValueError(f"resolution must be below the bracket 20*dt_fe = {hi:g}")
    if tf is not None and not 0.0 < tf < math.inf:
        raise ValueError("tf must be positive and finite")
    sp = to_spijker(method)
    C = ssp_coefficient(sp)
    if tf is None:
        tf = max(0.125, 12.0 * method.k * min(max(C, 1.0) * problem.dt_fe, hi))

    props = tuple(p for p, name in _PROPERTY_MONITORS.items() if name in problem.monitors)
    own = props.index(prop)
    run_key = (sp.ST.tobytes(), method.k, method.claimed_order, tf)
    joint = True

    def passes(dt):
        nonlocal joint
        if not joint:
            return _holds(problem, method, (prop,), dt, tf)[0]
        answers = problem._probes.get(run_key + (dt,))
        if answers is None:
            answers = _holds(problem, method, props, dt, tf)
            problem._probes[run_key + (dt,)] = answers
        joint = len(set(answers)) == 1
        return answers[own]

    lo, hi = (hi, hi) if passes(hi) else _bisect(passes, 0.0, hi, resolution)

    dx = problem.dx if problem.dx is not None else problem.dt_fe
    return StepSearchResult(
        dt_max=lo,
        normalized=lo / dx,
        theoretical=C * problem.dt_fe,
        resolution=resolution,
        horizon_limited=lo < hi and _whole_steps(hi, tf, method.k)[0] < 1,
    )


def vdp_convergence_study(
    method: MSRKMethod,
    eps: float = 10.0,
    tf: float = 4.0,
    Ns=(15, 19, 23, 27, 31, 35, 39, 43),
) -> list[tuple[float, float]]:
    """(dt, error at tf) pairs on the van der Pol problem, dt = tf/(N-1)."""
    problem = vdp_problem(eps)
    out = []
    for N in Ns:
        dt = tf / (N - 1)
        record = run(problem, method, dt, tf)
        out.append((dt, record.final_error))
    return out
