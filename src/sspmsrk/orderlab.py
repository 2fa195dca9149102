"""Order analysis: quadrature residuals, stage order, and a series oracle.

The quadrature (stage) residuals come directly from the method
coefficients.  The full nonlinear order is established by executing one
method step in truncated Taylor series arithmetic on random polynomial
ODEs and comparing against the exact local flow: the error coefficients
are polynomials in the method coefficients, so vanishing on a couple of
random problems is a polynomial identity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .methods import MSRKMethod, _degree_shift, _spijker_step, abscissae, to_spijker
from .series import PolynomialODE, TaylorSeries, flow_series

__all__ = [
    "ResidualSet",
    "stage_residuals",
    "stage_order",
    "oracle_order",
    "order_residual_vector",
    "convergence_order",
    "default_problems",
    "series_step_error",
]

MAX_ORACLE_ORDER = 12


@dataclass(frozen=True)
class ResidualSet:
    """Quadrature residuals tau_j, per stage (vectors) and for the final update."""

    stage: dict[int, NDArray]
    final: dict[int, float]


def stage_residuals(method: MSRKMethod, jmax: int) -> ResidualSet:
    """Evaluate the residuals tau_j for j = 1..jmax.

    tau_j (vector) = (1/j!)(c^j - Dt (-l)^j) - (1/(j-1)!) At c^{j-1},
    and the scalar residual replaces (Dt, At, c-rows) by (theta, bt, 1),
    with exponents taken elementwise.  Dt, At, theta and bt are slices
    of the Spijker matrices S and T.  On a stack of methods every
    residual gains the stack's leading axes.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    c, l = abscissae(method)
    sp = to_spijker(method)
    Dt, At, theta, bt = sp.S[..., :-1, :], sp.T[..., :-1, :-1], sp.S[..., -1, :], sp.T[..., -1, :-1]
    stage = {}
    final = {}
    for j in range(1, jmax + 1):
        fj = math.factorial(j)
        fj1 = math.factorial(j - 1)
        stage[j] = (c**j - Dt @ (-l) ** j) / fj - (At @ c[..., None] ** (j - 1))[..., 0] / fj1
        final[j] = (1.0 - theta @ (-l) ** j) / fj - (bt * c ** (j - 1)).sum(axis=-1) / fj1
    return ResidualSet(stage=stage, final=final)


def stage_order(method: MSRKMethod, tol: float = 1e-10) -> int:
    """Largest q with all stage and final residuals below tol for j <= q."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    res = stage_residuals(method, MAX_ORACLE_ORDER + 1)
    q = 0
    for j in range(1, MAX_ORACLE_ORDER + 2):
        if np.abs(res.stage[j]).max() > tol or abs(res.final[j]) > tol:
            break
        q = j
    return q


def default_problems(seed: int, nproblems: int, dim: int = 3, degree: int = 2):
    """Deterministic family of oracle problems derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(nproblems)
    return [
        PolynomialODE.random(int(child.generate_state(1)[0]), dim=dim, degree=degree)
        for child in children
    ]


def series_step_error(method: MSRKMethod, problem: PolynomialODE, N: int) -> NDArray:
    """Normalized local error coefficients of one method step on a problem.

    Back values are the exact flow sampled at -(k-l)h via argument
    scaling; the step is executed entirely in series arithmetic and the
    result compared with the exact flow at +h.  Row n of the returned
    array is the coefficient of h^n, divided entrywise by
    max(1, |exact flow coefficient|) so tolerances are scale-free.  A
    stack of methods steps as one stack of series.
    """
    k = method.k
    flow = flow_series(problem, N)

    def f(coeffs):
        return problem.eval_on_series(TaylorSeries(coeffs)).coeffs

    key = ("back", N, k)
    if key not in problem.cache:
        back = np.array([flow.scale_argument(float(l - k)).coeffs for l in range(1, k + 1)])
        problem.cache[key] = (back, np.array([f(u) for u in back]))
    back, f_back = problem.cache[key]
    u_next, _ = _spijker_step(to_spijker(method), back, f_back, f, _degree_shift(problem.dim))
    err = u_next - flow.coeffs
    scale = np.maximum(1.0, np.abs(flow.coeffs))
    return err / scale


def oracle_order(
    method: MSRKMethod,
    pmax: int = 8,
    nproblems: int = 4,
    seed: int = 2718,
    tol: float = 1e-9,
) -> int:
    """Order of the method as certified by the series oracle.

    The order is the largest p such that the local error coefficients of
    h^0..h^p vanish (within tol, normalized) on every test problem.
    With exact back values and a convex theta (zero-stability) the
    local result transfers to global order p.
    """
    if pmax > MAX_ORACLE_ORDER:
        raise ValueError(f"pmax must be at most {MAX_ORACLE_ORDER}")
    if nproblems < 2:
        raise ValueError("at least two problems are required to guard against cancellation")
    problems = default_problems(seed, nproblems)
    p_best = pmax
    for problem in problems:
        errs = np.abs(series_step_error(method, problem, pmax + 1))
        p = 0
        for n in range(pmax + 1):
            if errs[n].max() > tol:
                p = n - 1
                break
            p = n
        p_best = min(p_best, p)
    return max(p_best, 0)


def order_residual_vector(
    method: MSRKMethod, p: int, problems: list[PolynomialODE]
) -> NDArray:
    """Equality constraints for order p, as one flat residual vector.

    Concatenates the final residuals tau_j (j <= p), the stage residual
    vectors tau_j (j <= floor((p-1)/2), the stage order forced on SSP
    methods of order p), and the normalized local error coefficients of
    orders 1..p on each problem.  A stack of methods gives one row per
    member.
    """
    if p > MAX_ORACLE_ORDER:
        raise ValueError(f"p must be at most {MAX_ORACLE_ORDER}")
    res = stage_residuals(method, p)
    lead = method.b.shape[:-1]
    parts = [np.stack([res.final[j] for j in range(1, p + 1)], axis=-1)]
    q = (p - 1) // 2
    for j in range(1, q + 1):
        parts.append(res.stage[j])
    for problem in problems:
        err = series_step_error(method, problem, p)
        parts.append(err[..., 1 : p + 1, :].reshape(lead + (-1,)))
    return np.concatenate(parts, axis=-1)


def convergence_order(errors: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    if len(errors) < 4:
        raise ValueError("at least 4 (dt, error) points are required")
    dts = np.array([dt for dt, _ in errors])
    errs = np.array([e for _, e in errors])
    if np.any(np.diff(dts) >= 0):
        raise ValueError("dt values must be strictly decreasing")
    if np.any(errs <= 0):
        raise ValueError("errors must be positive")
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)
