"""Order analysis: quadrature residuals, stage order, and tree conditions.

The quadrature (stage) residuals come directly from the method
coefficients.  The full nonlinear order is certified by the rooted-tree
conditions Phi(t) = 1/gamma(t), whose elementary weights Phi(t) are
computed exactly from the coefficients by :mod:`sspmsrk.series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .methods import MSRKMethod, abscissae, to_spijker
from .series import elementary_weights, rooted_trees

__all__ = [
    "ResidualSet",
    "stage_residuals",
    "stage_order",
    "oracle_order",
    "order_residual_vector",
    "convergence_order",
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


def oracle_order(method: MSRKMethod, pmax: int = 8, seed: int = 2718, tol: float = 1e-9) -> int:
    """Order of the method as certified by its rooted-tree conditions.

    The order is the largest p <= pmax with |Phi(t) - 1/gamma(t)| <= tol
    for every tree with at most p vertices.  With exact back values and
    a convex theta (zero-stability) the local result transfers to
    global order p.  ``seed`` is accepted for callers written against
    the earlier randomized oracle and has no effect.
    """
    if pmax > MAX_ORACLE_ORDER:
        raise ValueError(f"pmax must be at most {MAX_ORACLE_ORDER}")
    trees = rooted_trees(pmax)
    err = np.abs(elementary_weights(method, pmax) - 1.0 / trees.gamma)
    failed = trees.order[err > tol]
    return int(failed.min()) - 1 if failed.size else pmax


def order_residual_vector(method: MSRKMethod, p: int) -> NDArray:
    """Equality constraints for order p, as one flat residual vector.

    Concatenates the tree residuals Phi(t) - 1/gamma(t) for |t| <= p and
    the stage residual vectors tau_j (j <= floor((p-1)/2), the stage
    order forced on SSP methods of order p).  A stack of methods gives
    one row per member.
    """
    if p > MAX_ORACLE_ORDER:
        raise ValueError(f"p must be at most {MAX_ORACLE_ORDER}")
    parts = [elementary_weights(method, p) - 1.0 / rooted_trees(p).gamma]
    q = (p - 1) // 2
    if q >= 1:
        res = stage_residuals(method, q)
        parts.extend(res.stage[j] for j in range(1, q + 1))
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
