"""Linear-stability theory: threshold factors and their optimum.

Applying a method to u' = lambda*u yields
u^{n+1} = psi_1(z) u^n + ... + psi_k(z) u^{n-k+1} with z = dt*lambda.
The radius of absolute monotonicity of each psi_i, and its minimum over
i (the threshold factor), bound the SSP coefficient on linear problems.
The largest threshold factor of any s-stage, k-step method of linear
order p is found by nonnegative least squares; for second order it has a
closed form, and a family of methods attains it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .methods import ENTRY_TOL, MSRKMethod, SpijkerForm, _bisect, _largest_nonnegative

__all__ = [
    "stability_polynomials",
    "threshold_factor",
    "linear_order",
    "linear_bound",
    "r_sk2",
    "gen_second_order",
]

#: largest coefficient error of a power of z that ``linear_order`` counts as met
LINEAR_ORDER_TOL = 1e-9
#: radii below this are not resolved: a search that finds no larger one
#: fails, and ``linear_bound`` reports 0 below it
MIN_POSITIVE_C = 1e-3
#: ``linear_bound`` is within this of the exact bound: it bisects to a tenth
#: of it, and a radius passes when NNLS meets its rows to LINEAR_FEASIBLE_RTOL
LINEAR_BOUND_TOL = 1e-6
#: largest NNLS residual ||A gamma - b|| / ||b|| at which a radius is feasible
LINEAR_FEASIBLE_RTOL = 1e-12


def _finite_psis(psis) -> NDArray:
    """psis as a float array; ValueError unless it is a finite 2-D array."""
    psis = np.asarray(psis, dtype=float)
    if psis.ndim != 2:
        raise ValueError(f"psis must be a 2-D array, got shape {psis.shape}")
    if not np.isfinite(psis).all():
        raise ValueError("psis must be finite")
    return psis


def stability_polynomials(sp: SpijkerForm) -> NDArray:
    """Polynomials in z produced by one step on u' = lambda*u, as a
    (k, s+1) array whose row i-1 holds the monomial coefficients of
    psi_i, the multiplier of u^{n+1-i}.

    One step solves w = S x + z T w, so w = (I - zT)^{-1} S x: the R of
    the canonical form at r = -z.  The z^j coefficient of psi_i is thus
    (-1)^j times entry (n-1, k-i) of the r^j row of the form's ``_table``.
    Raises FloatingPointError when that table overflows.
    """
    R = sp._table[:-1, -1, : sp.k]  # r^0..r^s rows of R's last row
    return (R * (-1.0) ** np.arange(sp.s + 1)[:, None])[:, ::-1].T.copy()


def _shifted_table(psi: NDArray) -> NDArray:
    """The shifted-basis coefficients of ``psi`` as a polynomial table in r.

    gamma_j(r) = sum_m psi_m C(m, j) (-1)^(m-j) r^m, so row m of the
    table holds the coefficients of r^m, shaped like ``psi``.
    """
    n = psi.shape[-1]
    signed = np.array([[math.comb(m, j) * (-1) ** (m - j) for j in range(n)] for m in range(n)],
                      dtype=float)
    return np.einsum("...m,mj->m...j", psi, signed)


def threshold_factor(psis: NDArray) -> float:
    """min_i R(psi_i) over the rows of :func:`stability_polynomials`, found
    by one bisection on all rows at once; R(psi), the largest r with every
    derivative of psi nonnegative on [-r, 0], is ``threshold_factor(psi[None])``.
    Zero rows count as +inf.  Raises ValueError unless psis is a finite 2-D array."""
    psis = _finite_psis(psis)
    deg = int(max(np.flatnonzero(psis.any(axis=0)), default=0))
    # feasibility at r -> 0+ means all Taylor coefficients at 0 are nonnegative
    if psis.min() < -ENTRY_TOL:
        return 0.0
    # the positive leading coefficients make the radius finite, but it can
    # exceed the starting bracket 2 deg + 2, which grows to inf on constants
    return _largest_nonnegative(_shifted_table(psis), 2.0 * deg + 2)


def _linear_conditions(basis: NDArray, k: int, p: int) -> tuple[NDArray, NDArray]:
    """Rows A and right side b of sum_i psi_i(z) e^{-(i-1)z} = e^z through z^p
    for psi_i = sum_j gamma_ij basis_j, i <= k, as A @ gamma.ravel() = b.

    ``basis`` holds the z^0..z^p coefficients of basis_j as row j; row m of
    A holds the z^m coefficients of basis_j(z) e^{-(i-1)z}, column (i, j).
    """
    m = np.arange(p + 1)
    factorial = np.array([math.factorial(n) for n in m], dtype=float)
    shift = (-np.arange(k, dtype=float)[:, None]) ** m / factorial
    lag = m[:, None] - m
    toeplitz = np.where(lag >= 0, shift[:, np.maximum(lag, 0)], 0.0)
    rows = np.swapaxes(toeplitz @ basis.T, 0, 1).reshape(p + 1, -1)
    return rows, 1.0 / factorial


def linear_order(psis: NDArray) -> int:
    """Largest p with sum_i psi_i(z) e^{-(i-1)z} = e^z through order z^p, psi_i being
    row i-1 of :func:`stability_polynomials`; ValueError unless psis is finite and 2-D.
    Trailing zero rows, steps the method never reads, add no condition and are dropped."""
    psis = _finite_psis(psis)
    psis = psis[: int(max(np.flatnonzero(psis.any(axis=1)), default=0)) + 1]
    k, n = psis.shape
    N = int(max(np.flatnonzero(psis.any(axis=0)), default=-1)) + k + 4
    rows, rhs = _linear_conditions(np.eye(n, N + 1), k, N)
    failed = np.flatnonzero(np.abs(rows @ psis.ravel() - rhs) > LINEAR_ORDER_TOL)
    return max(int(failed[0]) - 1, 0) if failed.size else N


def _linear_order_feasible(s: int, k: int, p: int, r: float) -> bool:
    """Whether some gamma >= 0 makes psi_i(z) = sum_j gamma_ij (1 + z/r)^j,
    i <= k and j <= s, meet the linear order conditions A gamma = b through
    z^p, i.e. min ||A gamma - b|| over gamma >= 0 is zero (Lawson-Hanson NNLS).
    The columns of A scale like r^-j, so each is divided by its largest entry.
    """
    from scipy.optimize import nnls  # imported here: it costs a fresh process about 0.45 s

    m = np.arange(p + 1)
    power = np.array([[math.comb(j, l) for l in m] for j in range(s + 1)]) / r**m
    rows, rhs = _linear_conditions(power, k, p)
    rows /= np.abs(rows).max(axis=0)
    try:
        return bool(nnls(rows, rhs)[1] <= LINEAR_FEASIBLE_RTOL * np.linalg.norm(rhs))
    except RuntimeError as exc:  # NNLS reached its iteration cap
        raise FloatingPointError(f"NNLS for R({s},{k},{p}) did not converge at r = {r:g}") from exc


def linear_bound(s: int, k: int, p: int) -> float:
    """R(s, k, p): the largest threshold factor of an s-stage, k-step method
    of linear order p, so C <= R(s, k, p) + LINEAR_BOUND_TOL for every one.

    R is the largest r at which the stability polynomials can be
    nonnegative combinations of (1 + z/r)^j, j <= s, with linear order p
    (Kraaijevanger 1986).  That is monotone in r, so R is found by bisection
    on [MIN_POSITIVE_C, s] (Ketcheson 2009) to within LINEAR_BOUND_TOL of the
    exact bound, on either side; order 1 alone gives R <= s.  Returns 0.0
    when MIN_POSITIVE_C fails: an infeasible target's NNLS residual shrinks
    with r ((2, 2, 4): 1.3e-4 ||b|| at r = 1e-3, 1.3e-5 ||b|| at 1e-4).
    Raises FloatingPointError when NNLS reaches its iteration cap.
    """
    if s < 1 or k < 1 or p < 1:
        raise ValueError("s, k and p must be at least 1")
    if not _linear_order_feasible(s, k, p, MIN_POSITIVE_C):
        return 0.0
    return _bisect(lambda r: _linear_order_feasible(s, k, p, r), MIN_POSITIVE_C, float(s),
                   0.1 * LINEAR_BOUND_TOL)[0]


def r_sk2(s: int, k: int) -> float:
    """Optimal threshold factor for s-stage, k-step methods of order two.

    ((k-2)s + sqrt((k-2)^2 s^2 + 4 s (s-1)(k-1))) / (2(k-1)).  Both
    summands are nonnegative for k >= 2, so the direct evaluation is
    cancellation-free.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if k <= 1:
        raise ValueError("the formula requires k > 1")
    a = (k - 2.0) * s
    disc = a * a + 4.0 * s * (s - 1.0) * (k - 1.0)
    return (a + math.sqrt(disc)) / (2.0 * (k - 1.0))


def gen_second_order(s: int, k: int) -> MSRKMethod:
    """The closed-form second-order family with C = r_sk2(s, k).

    Nonzero coefficients: d_{ik} = 1, a_{ij} = 1/R for j < i,
    b_j = beta = kQ / (s(k-1)(2(s-1)+Q)) with Q = 2(k-1)R,
    theta_k = (k - beta*s)/(k-1), theta_1 = 1 - theta_k.
    """
    if s < 2 or k < 2:
        raise ValueError("the family requires s >= 2 and k >= 2")
    R = r_sk2(s, k)
    Q = 2.0 * (k - 1) * R
    beta = k * Q / (s * (k - 1) * (2.0 * (s - 1) + Q))

    D = np.zeros((s, k))
    D[:, -1] = 1.0
    A = np.zeros((s, s))
    for i in range(1, s):
        A[i, :i] = 1.0 / R
    b = np.full(s, beta)
    theta = np.zeros(k)
    theta[-1] = (k - beta * s) / (k - 1)
    theta[0] = 1.0 - theta[-1]

    return MSRKMethod(
        s=s, k=k,
        D=D, Ahat=np.zeros((s, k - 1)), A=A,
        theta=theta, bhat=np.zeros(k - 1), b=b,
        name=f"SO2({s},{k})", claimed_order=2,
    )
