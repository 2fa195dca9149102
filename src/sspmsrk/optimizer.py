"""Numerical search for methods maximizing the SSP coefficient.

The decision problem "is there an order-p method feasible at radius r"
is solved as a least-squares feasibility problem (order-condition
residuals plus hinged inequality violations) from several starts; the
radius itself is found by outer bisection on r.  The outer/inner split
avoids the joint maximization, which tends to stall in local minima.
A radius's multistart ends at the first start accepted or, at r > 0,
once two distinct starts end at the same positive minimum.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .methods import (
    MethodStructureError, MSRKMethod, SpijkerForm, _bisect, _coefficient_shapes, _feasible,
    _spijker_layout, canonical, ssp_coefficient, to_spijker,
)
from .orderlab import MAX_ORACLE_ORDER, oracle_order, order_residual_vector
from .theory import LINEAR_BOUND_TOL, MIN_POSITIVE_C, gen_second_order, linear_bound

__all__ = [
    "SearchSpec",
    "SearchResult",
    "SearchFailure",
    "pack",
    "unpack",
    "free_parameter_count",
    "constraint_residuals",
    "maximize_ssp",
    "warm_start_ladder",
    "write_search_log",
]

#: evaluation budget (max_nfev) of one inner least-squares solve
MAX_INNER_ITERS = 500

#: at r > 0 a radius is infeasible once solves from two distinct starts, each ended
#: by MINPACK above feas_tol**2, agree in merit to REPEAT_RTOL relative
REPEAT_RTOL = 1e-9

#: norm of the pad column of a solve's Jacobian (see :func:`least_squares`)
_PAD_NORM = 1e-100


class SearchFailure(RuntimeError):
    """No feasible method was found (typically p is too high for (s, k))."""


@dataclass(frozen=True)
class SearchSpec:
    s: int
    k: int
    p: int
    starts: int = 10
    seed: int = 0
    r_tol: float = 1e-6
    #: a solve is feasible when its merit (squared residual norm) is at most feas_tol**2
    feas_tol: ClassVar[float] = 1e-10
    #: any sequence of methods, kept as a tuple
    warm_starts: tuple[MSRKMethod, ...] = ()

    def __post_init__(self):
        if self.s < 1 or self.k < 1:
            raise ValueError("s and k must be at least 1")
        if self.p < 1 or self.starts < 1:
            raise ValueError("p and starts must be at least 1")
        if self.p > MAX_ORACLE_ORDER:
            raise ValueError(f"p must be at most {MAX_ORACLE_ORDER}")
        if not 0.0 < self.r_tol < np.inf:
            raise ValueError("r_tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "warm_starts", tuple(self.warm_starts))
        for m in self.warm_starts:
            if (m.s, m.k) != (self.s, self.k):
                raise ValueError(f"warm start {m.name} is an (s={m.s}, k={m.k}) method, "
                                 f"not (s={self.s}, k={self.k})")
            to_spijker(m)  # an invalid start raises MethodStructureError here


@dataclass
class SearchResult:
    method: MSRKMethod
    C: float
    Ceff: float
    certified: bool
    #: the linear bound R(s, k, p), a ceiling on C
    R: float
    history: list[tuple[float, int, float, int, int]]  # (r, start index, merit, nfev, njev)


def free_parameter_count(s: int, k: int) -> int:
    return _plan(s, k).free.size


def pack(method: MSRKMethod) -> NDArray:
    """Free coordinates of a valid method, read from its Spijker form; the
    entries dropped here are restored by normalization in :func:`unpack`."""
    return to_spijker(method).ST.reshape(-1)[_plan(method.s, method.k).free]


class _Plan(NamedTuple):
    """How a vector x of free coordinates fills the Spijker form [S | T]
    of an (s, k) method, by flat position (see ``methods._spijker_layout``)."""

    #: positions the search moves: D[1:, :-1], Ahat[1:], tril(A, -1), theta[:-1], bhat, b
    free: NDArray
    #: upper end of each free coordinate's random start: 1 in D and theta, else 2/s
    high: NDArray
    #: positions of D's last column and theta's last entry ...
    last: NDArray
    #: ... and, one row each, of the entries each is one minus the sum of
    rest: NDArray
    #: gather order of the coefficient-bound rows -D, D-1, -theta, theta-1, -A, -Ahat, -b, -bhat
    bounds: NDArray
    #: True on the rows x - 1 of an upper bound, False on the rows -x
    upper: NDArray


@functools.lru_cache(maxsize=None)
def _plan(s: int, k: int) -> _Plan:
    where = _spijker_layout(s, k)[0]
    D, theta = where["D"], where["theta"]
    # stage 1 is u^n, and the last entries of D's rows and of theta follow from their sums
    free = [(D[1:, :-1], 1.0), (where["Ahat"][1:], 2.0 / s),
            (where["A"][np.tril_indices(s, -1)], 2.0 / s), (theta[:-1], 1.0),
            (where["bhat"], 2.0 / s), (where["b"], 2.0 / s)]
    # D <= 1 and theta <= 1 follow from D, theta >= 0 and their unit row sums, but only
    # at a feasible point: on the way there their hinges steer the solve.  Without them
    # criterion 4's (3,2,3) fell from C_eff 0.55018 to 0.33810 at every seed 1-12 and 123
    # (nfev 448 -> 1,774); (2,2,3), (2,3,4) and seven paper shapes kept their C_eff.
    rows = [(D, False), (D, True), (theta, False), (theta, True)]
    rows += [(where[key], False) for key in ("A", "Ahat", "b", "bhat")]
    plan = _Plan(
        free=np.concatenate([pos.ravel() for pos, _ in free]),
        high=np.concatenate([np.full(pos.size, high) for pos, high in free]),
        last=np.append(D[:, -1], theta[-1]),
        rest=np.vstack([D[:, :-1], theta[:-1]]),
        bounds=np.concatenate([pos.ravel() for pos, _ in rows]),
        upper=np.concatenate([np.full(pos.size, up) for pos, up in rows]),
    )
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _scatter(x: NDArray, s: int, k: int) -> SpijkerForm:
    """The Spijker form of x, or a stack of forms, one per point of a stack;
    D's rows and theta regain sum 1 through their last entry."""
    plan = _plan(s, k)
    ST = np.tile(_spijker_layout(s, k)[1], x.shape[:-1] + (1,))
    ST[..., plan.free] = x
    ST[..., plan.last] = 1.0 - ST[..., plan.rest].sum(axis=-1)
    return SpijkerForm(ST.reshape(x.shape[:-1] + (k + s, 2 * k + s)))


def unpack(x: NDArray, s: int, k: int, name: str = "search", claimed_order: int = 1) -> MSRKMethod:
    """Inverse of :func:`pack`; D rows and theta regain sum 1 via their
    last entry, so any vector of the right length yields a consistent
    method."""
    x = np.asarray(x, dtype=float)
    n = free_parameter_count(s, k)
    if x.shape != (n,):
        raise ValueError(f"expected {n} free parameters for (s={s}, k={k}), got shape {x.shape}")
    flat = _scatter(x, s, k).ST.reshape(-1)
    arrays = {key: flat[pos] for key, pos in _spijker_layout(s, k)[0].items()}
    return MSRKMethod(s=s, k=k, **arrays, name=name, claimed_order=claimed_order)


def constraint_residuals(sp: SpijkerForm, r: float, p: int):
    """Equality residuals (order conditions) and inequality violations of a
    Spijker form, or one row of each per form of a stack.

    Inequality entries are positive exactly when violated: negated
    entries of P and R at radius r, plus the coefficient bounds
    0 <= D <= 1, 0 <= theta <= 1, and nonnegativity of A, Ahat, b, bhat.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    eq = order_residual_vector(sp, p)
    cf = canonical(sp, r)
    plan = _plan(sp.s, sp.k)
    lead = sp.ST.shape[:-2]
    coef = sp.ST.reshape(lead + (-1,))[..., plan.bounds]
    PR = np.concatenate([m.reshape(lead + (-1,)) for m in (cf.P, cf.R)], axis=-1)
    ineq = np.concatenate([-PR, np.where(plan.upper, coef - 1.0, -coef)], axis=-1)
    return eq, ineq


def _raw_residuals(x, s, k, r, p):
    """:func:`constraint_residuals` at x, or at each point of a stack x of shape
    (B, n); x goes straight into the Spijker form, whose structure holds by
    construction, so no method is built or validated."""
    if not np.isfinite(x).all():
        raise MethodStructureError("coefficients must be finite")
    return constraint_residuals(_scatter(x, s, k), r, p)


def _merit_residuals(x, s, k, r, p):
    """Merit residuals at x, or one row per point of a stack x of shape (B, n):
    the equality residuals and the hinged inequalities max(0, ineq)."""
    eq, ineq = _raw_residuals(x, s, k, r, p)
    return np.concatenate([eq, np.maximum(0.0, ineq)], axis=-1)


def _merit_jacobian(x, s, k, r, p):
    """The merit's Jacobian on the side of each hinge where x sits: the raw rows
    differenced forward with scipy's '2-point' steps, h = sqrt(eps) sign(x)
    max(1, |x|) with sign(0) = 1, divided by (x + h) - x, x and its n perturbed
    copies evaluated as one stack; then every inequality row at most 0 at x is
    0, since differences across the kink of max(0, ineq) belong to neither side."""
    h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    eq, ineq = _raw_residuals(np.vstack([x, x + np.diag(h)]), s, k, r, p)
    F = np.concatenate([eq, ineq], axis=-1)
    J = (F[1:] - F[0]).T / ((x + h) - x)
    J[eq.shape[-1]:][ineq[0] <= 0.0] = 0.0
    return J


def _accepted(spec: SearchSpec, r: float, merit: float, x: NDArray) -> bool:
    """Whether a solve shows radius r feasible: its merit is within feas_tol**2
    and, for r > 0, its method reaches r less 1e-6, since such a merit can
    hide violations that leave it short of r."""
    return merit <= spec.feas_tol**2 and (
        r == 0.0 or _feasible(_scatter(x, spec.s, spec.k), max(0.0, r - 1e-6)))


def _once_per_point(f):
    """f, which gives its last value again, uncomputed, when called again at its last
    point; its attribute ``computed`` counts the values computed."""
    last = [None, None]

    def memo(z):
        if last[0] is None or not np.array_equal(z, last[0]):
            last[:] = z.copy(), f(z)
            memo.computed += 1
        return last[1]

    memo.computed = 0
    return memo


#: scipy's status of a MINPACK exit; exits 6-8 need a tolerance below machine epsilon
_STATUS = {0: -1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 0}


def least_squares(fun, x0, *, jac):
    """One inner solve of fun(x) = 0, jac(x) its Jacobian, by MINPACK's
    Levenberg-Marquardt (``lmder``) through scipy's ``leastsq``: the loop that scipy's
    ``least_squares(method="lm", x_scale=1.0)`` runs on the padded problem, less the
    wrapper around each call and the Jacobian it adds at the end.  xtol, ftol and
    gtol are 1e-15 (MINPACK needs them above machine epsilon) and the budget is
    MAX_INNER_ITERS residuals.  Imports
    scipy.optimize on first call (about 0.45 s in a fresh process); a module
    global, so it can be wrapped.

    The pad: a last coordinate that no residual reads, and a zero last residual.
    MINPACK's QR (scipy 1.17.1), when it recomputes the norm of the last column,
    reads one entry past the Jacobian's end, so without the pad a solve hung on
    leftover heap memory and could end an ulp apart from one process to the next.
    The pad's column is zero but for _PAD_NORM in its own row: no Householder
    step changes it, so its norm is never recomputed, and its step is zero.
    Pivoting takes it after every column with a norm left and before those whose
    norm fell to zero, which are never recomputed either.

    Returns x, cost (half the last residual's squared norm), nfev and njev (the
    residuals and Jacobians computed, each once per point, though ``leastsq``
    checks both at x0 before MINPACK asks for them) and status (0: the budget ran out).
    """
    from scipy.optimize import OptimizeResult, leastsq

    def jacobian(z):
        J = jac(z[:-1])
        bordered = np.zeros((J.shape[0] + 1, J.shape[1] + 1))
        bordered[:-1, :-1] = J
        bordered[-1, -1] = _PAD_NORM
        return bordered

    z0 = np.append(x0, 0.0)
    residuals = _once_per_point(lambda z: np.append(fun(z[:-1]), 0.0))
    jacobian = _once_per_point(jacobian)
    if not np.isfinite(residuals(z0)).all():
        raise ValueError("Residuals are not finite in the initial point.")
    z, _, info, _, exit_code = leastsq(
        residuals, z0, Dfun=jacobian, full_output=True, ftol=1e-15, xtol=1e-15, gtol=1e-15,
        maxfev=MAX_INNER_ITERS, diag=np.ones(len(z0)))
    f = info["fvec"]
    return OptimizeResult(x=z[:-1], cost=0.5 * np.dot(f, f), nfev=residuals.computed,
                          njev=jacobian.computed, status=_STATUS[exit_code])


def _solve_feasibility(spec: SearchSpec, r: float, starts, history):
    """(x, best merit): x of the first start whose solve is :func:`_accepted`
    at r, or None, and the least merit over the solves made.

    Each start is solved by MINPACK's Levenberg-Marquardt (:func:`least_squares`),
    as the merit has no bounds (they are hinged into the residual).  Unit scaling
    of the coordinates, as 'trf' had, kept the (3,2,3) search at its optimum
    where MINPACK's default, column-norm scaling, often did not.  Every solve
    ends by MINPACK's own tests or once MAX_INNER_ITERS residuals are spent.

    A start with the bits of one already solved at r is skipped, with no history
    row, as the padded solve is deterministic.  At r > 0 the repeat rule gives r
    up once the solves from two distinct starts, ended by MINPACK (status > 0)
    above feas_tol**2, agree in merit to REPEAT_RTOL relative.
    """
    s, k, p = spec.s, spec.k, spec.p
    best_merit, solved, minima = np.inf, set(), []
    for idx, x0 in enumerate(starts):
        if x0.tobytes() in solved:
            continue
        solved.add(x0.tobytes())
        sol = least_squares(lambda x: _merit_residuals(x, s, k, r, p), x0,
                            jac=lambda x: _merit_jacobian(x, s, k, r, p))
        merit = float(2.0 * sol.cost)  # cost is half the squared norm
        history.append((r, idx, merit, sol.nfev, sol.njev))
        if _accepted(spec, r, merit, sol.x):
            return sol.x, merit
        best_merit = min(best_merit, merit)
        if r > 0.0 and sol.status > 0 and merit > spec.feas_tol**2:
            if any(abs(merit - m) <= REPEAT_RTOL * m for m in minima):
                break
            minima.append(merit)
    return None, best_merit


def warm_start_ladder(
    s: int, k: int, p: int, found: Optional[dict] = None
) -> list[MSRKMethod]:
    """Warm starts: previously found (s, k-1, p) and (s-1, k, p) methods
    embedded into the (s, k) shape (see :func:`embed`), plus the closed-form
    second-order method when it exists."""
    found = found or {}
    near = (found.get((s, k - 1, p)), found.get((s - 1, k, p)))
    out = [embed(m, s, k) for m in near if m is not None]
    if s >= 2 and k >= 2:
        out.append(gen_second_order(s, k))
    return out


def embed(method: MSRKMethod, s: int, k: int) -> MSRKMethod:
    """An (s0, k0) method as an (s, k) method that takes the same steps, for
    s >= s0 and k >= k0: its stages come first and its steps last, so the
    k - k0 oldest steps go unused, and each added stage is a copy of u^n with
    zero weight (D row e_k; zero rows of A and Ahat; zero entry of b)."""
    s0, k0 = method.s, method.k
    if s < s0 or k < k0:
        raise ValueError(f"cannot embed an (s={s0}, k={k0}) method in (s={s}, k={k})")
    stages, steps = slice(None, s0), slice(k - k0, None)
    arrays = {key: np.zeros(shape) for key, shape in _coefficient_shapes(s, k).items()}
    arrays["D"][s0:, -1] = 1.0
    for key, where in [("D", (stages, steps)), ("Ahat", (stages, steps)), ("A", (stages, stages)),
                       ("theta", steps), ("bhat", steps), ("b", stages)]:
        arrays[key][where] = getattr(method, key)
    return MSRKMethod(s=s, k=k, **arrays, name=f"{method.name} in ({s},{k})",
                      claimed_order=method.claimed_order)


def maximize_ssp(spec: SearchSpec) -> SearchResult:
    """Outer bisection on the radius with inner feasibility solves.

    The bisection runs on [0, R + LINEAR_BOUND_TOL] with R the linear
    bound R(s, k, p), which no radius above can beat.  Raises
    :class:`SearchFailure` when R, or the radius found, is not
    meaningfully positive; below MIN_POSITIVE_C, R fails the search
    before any inner solve.  Raises ValueError before any inner solve
    when r_tol is not below the bracket, as the bisection would make no
    probe and report a radius of 0.
    """
    s, k, p = spec.s, spec.k, spec.p
    R = linear_bound(s, k, p)
    if R < MIN_POSITIVE_C:
        raise SearchFailure(
            f"the linear bound R({s},{k},{p}) is below {MIN_POSITIVE_C:g}, so no order-{p} "
            f"method for (s={s}, k={k}) has a positive SSP coefficient"
        )
    hi = R + LINEAR_BOUND_TOL
    if spec.r_tol >= hi:
        raise ValueError(f"r_tol must be below the bracket R({s},{k},{p}) + {LINEAR_BOUND_TOL:g} "
                         f"= {hi:g}")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, s, k, p]))

    history: list[tuple[float, int, float, int, int]] = []

    def starts_at(best_x, n_random):
        out = []
        if best_x is not None:
            out.append(best_x)
        out.extend(pack(m) for m in spec.warm_starts)
        out.extend(rng.uniform(0.0, _plan(s, k).high) for _ in range(n_random))
        return out

    # establish feasibility at r = 0 with the full multistart budget
    x0, merit0 = _solve_feasibility(spec, 0.0, starts_at(None, spec.starts), history)
    if x0 is None:
        raise SearchFailure(
            f"no order-{p} method found at r=0 for (s={s}, k={k}); best merit {merit0:.3e}"
        )

    best_x = x0
    n_random_later = min(spec.starts, 3)

    def feasible(r):
        nonlocal best_x
        x, _ = _solve_feasibility(spec, r, starts_at(best_x, n_random_later), history)
        if x is not None:
            best_x = x
        return x is not None

    lo, _ = _bisect(feasible, 0.0, hi, spec.r_tol)

    if lo <= MIN_POSITIVE_C:
        raise SearchFailure(
            f"largest feasible radius for (s={s}, k={k}, p={p}) is {lo:.3e}; "
            "no method with positive SSP coefficient found"
        )

    method = unpack(best_x, s, k, name=f"OPT({s},{k},{p})", claimed_order=p)
    C = ssp_coefficient(to_spijker(method))
    certified = oracle_order(method, pmax=p) >= p and C <= R + LINEAR_BOUND_TOL
    return SearchResult(method=method, C=C, Ceff=C / s, certified=certified, R=R,
                        history=history)


def write_search_log(history, path):
    """CSV search log: one row per inner solve, its iterations being nfev."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "r", "merit", "iterations"])
        for r, idx, merit, nfev, _ in history:
            writer.writerow([idx, f"{r:.12g}", f"{merit:.6e}", nfev])
