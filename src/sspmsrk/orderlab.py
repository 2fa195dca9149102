"""Order analysis: tree conditions, stage order, and observed order.

A method's order conditions are the rooted-tree conditions
Phi(t) = 1/gamma(t), whose elementary weights Phi(t) are computed
exactly from the coefficients by :mod:`sspmsrk.series`.  Stage order is
the same test on the bushy trees b_j = [tau^(j-1)] at every stage: the
stage weight Phi_i(b_j) must equal c_i^j / j, with c_i = Phi_i(tau) the
stage's abscissa.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .methods import MSRKMethod, SpijkerForm, to_spijker
from .series import RootedTrees, bushy_trees, elementary_weights, rooted_trees

__all__ = ["stage_order", "oracle_order", "order_residual_vector", "convergence_order"]

MAX_ORACLE_ORDER = 12
#: largest |Phi(t) - 1/gamma(t)| a tree condition met by ``oracle_order`` may show
ORDER_TOL = 1e-9
#: largest scaled bushy-tree defect a condition met by ``stage_order`` may show
STAGE_TOL = 1e-10


def _bushy_defects(trees: RootedTrees, phi: NDArray, stage: NDArray, N: int
                   ) -> tuple[NDArray, NDArray]:
    """Defects of the bushy trees b_1..b_N, each divided by (j-1)!, from
    the weights ``elementary_weights`` gave on a table that holds b_j and
    [b_j] for every j <= N.

    Returns the step value's Phi(b_j) - 1/j, shaped (..., N), and the
    stages' Phi_i(b_j) - c_i^j / j, read at the stems [b_j] and shaped
    (..., s, N): the negated quadrature residuals tau_j of the final
    update and of the stages.
    """
    j = np.arange(1, N + 1)
    scale = np.array([math.factorial(i - 1) for i in j], dtype=float)
    c = stage[..., trees.stems[0], None]
    return ((phi[..., trees.bushy[:N]] - 1.0 / j) / scale,
            (stage[..., trees.stems[:N]] - c**j / j) / scale)


def stage_order(method: MSRKMethod) -> int:
    """Largest q <= MAX_ORACLE_ORDER + 1 with every bushy defect of the
    step value and of the stages at most STAGE_TOL for j <= q."""
    N = MAX_ORACLE_ORDER + 1
    trees = bushy_trees(N)  # not rooted_trees(N + 1), which is far too large
    step, stage = _bushy_defects(trees, *elementary_weights(to_spijker(method), trees), N)
    bad = (np.abs(step) > STAGE_TOL) | (np.abs(stage) > STAGE_TOL).any(axis=-2)
    return int(np.argmax(bad)) if bad.any() else N


def oracle_order(method: MSRKMethod, pmax: int = 8, seed: int = 2718) -> int:
    """Order of the method as certified by its rooted-tree conditions.

    The order is the largest p <= pmax with |Phi(t) - 1/gamma(t)| <=
    ORDER_TOL for every tree with at most p vertices.  With exact back
    values and a convex theta (zero-stability) the local result
    transfers to global order p.  ``seed`` is accepted for callers
    written against the earlier randomized oracle and has no effect.
    """
    if pmax > MAX_ORACLE_ORDER:
        raise ValueError(f"pmax must be at most {MAX_ORACLE_ORDER}")
    trees = rooted_trees(pmax)
    err = np.abs(elementary_weights(to_spijker(method), trees)[0] - 1.0 / trees.gamma)
    failed = trees.order[err > ORDER_TOL]
    return int(failed.min()) - 1 if failed.size else pmax


def order_residual_vector(sp: SpijkerForm, p: int) -> NDArray:
    """Equality constraints for order p, as one flat residual vector, of a
    method's Spijker form.

    Concatenates the tree residuals Phi(t) - 1/gamma(t) for |t| <= p and
    the stage defects of the bushy trees b_j for 2 <= j <= floor((p-1)/2),
    the stage order forced on SSP methods of order p (j = 1 holds by the
    definition of c).  Both come from one pass over the trees of order at
    most p, which hold b_j and [b_j].  A stack of forms gives one row per
    member.
    """
    if p > MAX_ORACLE_ORDER:
        raise ValueError(f"p must be at most {MAX_ORACLE_ORDER}")
    trees = rooted_trees(p)
    phi, stage = elementary_weights(sp, trees)
    parts = [phi - 1.0 / trees.gamma]
    q = (p - 1) // 2
    if q >= 2:
        rows = _bushy_defects(trees, phi, stage, q)[1][..., 1:]
        parts.append(np.swapaxes(rows, -1, -2).reshape(rows.shape[:-2] + (-1,)))
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
