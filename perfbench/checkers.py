"""Independent reference computations the benchmark checks results against.

Nothing here calls into ``sspmsrk``: the SSP coefficient is recomputed
from the raw coefficient arrays with the benchmark's own Spijker-form
assembly and forward substitution, the second-order optimum comes from
the paper's closed form, and the Buckley-Leverett TVD factor from the
analytic derivative of the flux.
"""

from __future__ import annotations

import math

import numpy as np

#: slack on canonical-form entries, as in the acceptance suite's invariant check
ENTRY_TOL = 1e-12


def r_sk2(s: int, k: int) -> float:
    """Optimal threshold factor of s-stage, k-step second-order methods (k >= 2)."""
    a = (k - 2.0) * s
    return (a + math.sqrt(a * a + 4.0 * s * (s - 1.0) * (k - 1.0))) / (2.0 * (k - 1.0))


def spijker_matrices(method) -> tuple[np.ndarray, np.ndarray]:
    """S ((k+s) x k) and T ((k+s) x (k+s)) of w = S x + dt T f, from the tableau arrays."""
    s, k = method.s, method.k
    n = k + s
    S = np.zeros((n, k))
    T = np.zeros((n, n))
    for i in range(k - 1):
        S[i, i] = 1.0
    for i in range(s):
        row = k - 1 + i
        S[row] = method.D[i]
        T[row, : k - 1] = method.Ahat[i]
        T[row, k - 1 : k - 1 + i] = method.A[i, :i]
    S[n - 1] = method.theta
    T[n - 1, : k - 1] = method.bhat
    T[n - 1, k - 1 : k - 1 + s] = method.b
    return S, T


def canonical_min(S: np.ndarray, T: np.ndarray, r: float) -> float:
    """Smallest entry of P = r (I + rT)^{-1} T and R = (I + rT)^{-1} S.

    T is strictly lower triangular, so row i of X = (I + rT)^{-1} [S | T]
    is B_i - r * sum_{j<i} T_ij X_j, solved row by row.
    """
    B = np.hstack([S, T])
    X = np.zeros_like(B)
    for i in range(B.shape[0]):
        X[i] = B[i] - r * (T[i, :i] @ X[:i])
    k = S.shape[1]
    return float(min(X[:, :k].min(), r * X[:, k:].min()))


def ssp_bisect(method, tol: float = ENTRY_TOL, width: float = 1e-12) -> float:
    """Largest r in [0, s+1] at which the canonical form is nonnegative within tol."""
    S, T = spijker_matrices(method)
    if S.min() < -tol:
        return 0.0
    lo, hi = 0.0, float(method.s + 1)
    if canonical_min(S, T, hi) >= -tol:
        return hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if canonical_min(S, T, mid) >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


def bl_flux_slope(u, a: float = 1.0 / 3.0):
    """f'(u) for the Buckley-Leverett flux f(u) = u^2 / (u^2 + a (1-u)^2)."""
    den = u * u + a * (1.0 - u) ** 2
    return 2.0 * a * u * (1.0 - u) / (den * den)


def bl_tvd_factor(a: float = 1.0 / 3.0) -> float:
    """2 / max_{[0,1]} f'(u): the limited scheme's nominal dt_fe assumes max |f'| = 2.

    f' is unimodal on [0, 1] (zero at both ends, one interior maximum),
    so a grid bracket refined by golden-section search finds the maximum
    to rounding (100 steps shrink the bracket far below one ulp).
    """
    grid = np.linspace(0.0, 1.0, 10001)
    j = int(np.argmax(bl_flux_slope(grid, a)))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        m1 = hi - g * (hi - lo)
        m2 = lo + g * (hi - lo)
        if bl_flux_slope(m1, a) < bl_flux_slope(m2, a):
            lo = m1
        else:
            hi = m2
    return 2.0 / float(bl_flux_slope(0.5 * (lo + hi), a))


def loglog_slope(pairs) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    dts = np.log([dt for dt, _ in pairs])
    errs = np.log([err for _, err in pairs])
    A = np.vstack([dts, np.ones_like(dts)]).T
    (slope, _), *_ = np.linalg.lstsq(A, errs, rcond=None)
    return float(slope)
