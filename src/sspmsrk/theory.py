"""Linear-stability theory: threshold factors and their optimum.

Applying a method to u' = lambda*u yields
u^{n+1} = psi_1(z) u^n + ... + psi_k(z) u^{n-k+1} with z = dt*lambda.
The radius of absolute monotonicity of each psi_i, and its minimum over
i (the threshold factor), bound the SSP coefficient on linear problems.
The largest threshold factor of any s-stage, k-step method of linear
order p is found by linear programming; for second order it has a
closed form, and a family of methods attains it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .methods import ENTRY_TOL, MSRKMethod, SpijkerForm, _bisect, _largest_feasible, _spijker_step

__all__ = [
    "stability_polynomials",
    "shifted_basis",
    "radius_abs_monotonicity",
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
#: ``linear_bound`` is within this of the exact bound: it bisects to a
#: tenth of it, and HiGHS accepts rows met to its feasibility tolerance
LINEAR_BOUND_TOL = 1e-6


def stability_polynomials(sp: SpijkerForm) -> NDArray:
    """Polynomials in z produced by one step on u' = lambda*u, as a
    (k, s+1) array whose row i-1 holds the monomial coefficients of
    psi_i, the multiplier of u^{n+1-i}.

    Forward substitution through w = S x + z T w on tables of degree
    by input step, where input x_j is the constant 1 at column j.  The
    last row of w is u^{n+1}; its dependence on x_{k+1-i} is psi_i.
    """
    k, s = sp.k, sp.s
    x = np.zeros((k, s + 1, k))
    x[:, 0, :] = np.eye(k)

    def times_z(v: NDArray) -> NDArray:  # a flattened row holds k columns per degree
        out = np.zeros_like(v)
        out[..., k:] = v[..., :-k]  # the top degree, past s, is dropped
        return out

    last, _ = _spijker_step(sp, x, x, lambda w: w, times_z)
    return last[:, ::-1].T.copy()


def shifted_basis(psi: NDArray, r: float) -> NDArray:
    """Exact change of basis from monomials in z to powers of (1 + z/r).

    Writing t = 1 + z/r, the result is the coefficient table of
    psi(r*(t-1)) in t along the last axis; same shape as the input.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    psi = np.asarray(psi, dtype=float)
    gamma, rg = np.zeros_like(psi), np.empty_like(psi)
    # Horner's rule, highest power first: gamma <- gamma * (r t - r) + c
    for c in np.moveaxis(psi, -1, 0)[::-1]:
        np.multiply(gamma, r, out=rg)
        np.subtract(rg[..., :-1], rg[..., 1:], out=gamma[..., 1:])
        gamma[..., 0] = c - rg[..., 0]
    return gamma


def radius_abs_monotonicity(psi: NDArray) -> float:
    """Largest r with all derivatives of psi nonnegative on [-r, 0].

    For polynomials this is equivalent to nonnegativity of all
    shifted-basis coefficients at r, which is what the bisection tests.
    """
    psi = np.asarray(psi, dtype=float)
    if not psi.any():
        raise ValueError("psi must be nonzero")
    return threshold_factor(psi[None])


def threshold_factor(psis: NDArray) -> float:
    """min_i R(psi_i) over the rows of :func:`stability_polynomials`, found
    by one bisection on all rows at once; identically-zero polynomials
    count as +inf."""
    psis = np.asarray(psis, dtype=float)
    deg = int(max(np.flatnonzero(psis.any(axis=0)), default=0))
    # feasibility at r -> 0+ means all Taylor coefficients at 0 are nonnegative
    if psis.min() < -ENTRY_TOL:
        return 0.0
    if deg == 0:
        return math.inf  # nonnegative constants: absolutely monotonic everywhere
    # the positive leading coefficients make the radius finite, but it can
    # exceed the starting bracket 2 deg + 2
    return _largest_feasible(lambda r: shifted_basis(psis, r).min() >= -ENTRY_TOL, 2.0 * deg + 2)


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
    """Largest p with sum_i psi_i(z) e^{-(i-1)z} = e^z through order z^p,
    psi_i being row i-1 of :func:`stability_polynomials`."""
    psis = np.asarray(psis, dtype=float)
    k, n = psis.shape
    N = int(max(np.flatnonzero(psis.any(axis=0)), default=-1)) + k + 4
    rows, rhs = _linear_conditions(np.eye(n, N + 1), k, N)
    failed = np.flatnonzero(np.abs(rows @ psis.ravel() - rhs) > LINEAR_ORDER_TOL)
    return max(int(failed[0]) - 1, 0) if failed.size else N


def _linear_order_feasible(s: int, k: int, p: int, r: float) -> bool:
    """Whether some gamma >= 0 makes psi_i(z) = sum_j gamma_ij (1 + z/r)^j,
    i <= k and j <= s, meet the linear order conditions through z^p.

    Each column of :func:`_linear_conditions` is divided by its largest
    entry, as the columns scale like r^-j.
    """
    # imported here: scipy.optimize adds about 0.45 s to a fresh process,
    # and only the linear bound and the search's inner solves need it
    from scipy.optimize import linprog

    m = np.arange(p + 1)
    power = np.array([[math.comb(j, l) for l in m] for j in range(s + 1)]) / r**m
    rows, rhs = _linear_conditions(power, k, p)
    rows /= np.abs(rows).max(axis=0)
    res = linprog(np.zeros(rows.shape[1]), A_eq=rows, b_eq=rhs, bounds=(0, None),
                  method="highs")
    return res.status == 0


def linear_bound(s: int, k: int, p: int) -> float:
    """R(s, k, p): the largest threshold factor of an s-stage, k-step
    method of linear order p, so C <= R(s, k, p) for every such method.

    R is the largest r at which the stability polynomials can be
    nonnegative combinations of (1 + z/r)^j, j <= s, with linear order p
    (Kraaijevanger 1986); for fixed r that is an LP feasibility problem,
    and feasibility is monotone in r, so R is found by bisection on
    [MIN_POSITIVE_C, s] (Ketcheson 2009), to LINEAR_BOUND_TOL; order 1
    alone already gives R <= s.  Returns 0.0 when the LP is infeasible
    at MIN_POSITIVE_C: nearer 0 the columns span too many magnitudes for
    HiGHS to decide (it accepts (2, 2, 4) at r = 1e-4).
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
