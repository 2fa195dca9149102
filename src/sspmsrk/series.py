"""Rooted trees and the elementary weights of a method (B-series).

One step of a method applied to u' = F(u) from exact back values has a
B-series: the coefficient of the elementary differential of a rooted
tree t in the new step value is the elementary weight Phi(t), divided
by its symmetry.  The exact flow has coefficient 1/gamma(t), so a
method has order p exactly when Phi(t) = 1/gamma(t) for every tree with
at most p vertices (Butcher, *Numerical Methods for ODEs*, ch. 3).
The weights are found by running the step itself on the tree system
y_t' = prod of y over t's children, with the step size absorbed.  A
stage's f value at the stem [t] (t grafted onto a single vertex) is that
stage's own weight Phi_i(t), so the stages' weights come out too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.typing import NDArray

from .methods import SpijkerForm, _spijker_step

__all__ = ["RootedTrees", "rooted_trees", "bushy_trees", "elementary_weights"]


@dataclass(frozen=True, eq=False)
class RootedTrees:
    """A table of rooted trees with their orders and densities gamma.

    Tree 0 is the single vertex tau.  Each later tree t is the Butcher
    product u o v (v grafted onto the root of u).  ``products`` holds
    index arrays (t, u, v), applied in sequence: a group may use the
    trees of earlier groups only.  A table need not hold every tree of
    an order.  ``bushy[j - 1]`` is the index of the bushy tree b_j =
    b_(j-1) o tau (tau^(j-1) on one root; order j, gamma j) and
    ``stems[j - 1]`` that of its stem [b_j] = tau o b_j (order j+1, gamma
    (j+1) j), for as many j as the table holds.  Tables compare and hash
    by identity.
    """

    order: NDArray
    gamma: NDArray
    products: tuple[tuple[NDArray, NDArray, NDArray], ...]
    bushy: NDArray
    stems: NDArray


@lru_cache(maxsize=None)
def rooted_trees(N: int) -> RootedTrees:
    """Every rooted tree with 1..N vertices, in order of size.

    Each tree's v is its last child in index order, and ``products[n - 2]``
    builds the trees with n vertices.  So b_n, built last from b_(n-1) and
    tau, is the last tree with n vertices, and the trees tau o v come first
    in each block, in the order of v: [b_j] has the rank among the j+1
    vertex trees that b_j has among the j vertex trees.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    order, gamma, last_child = [1], [1.0], [0]
    first = [0, 0, 1]  # first[m]: index of the first tree with m vertices
    products = []
    for n in range(2, N + 1):
        t, u, v = [], [], []
        for iu in range(first[n]):
            m = n - order[iu]
            for iv in range(max(last_child[iu], first[m]), first[m + 1]):
                t.append(len(order) + len(t))
                u.append(iu)
                v.append(iv)
        first.append(first[n] + len(t))
        for iu, iv in zip(u, v):
            order.append(n)
            gamma.append(gamma[iu] * gamma[iv] * n / order[iu])
            last_child.append(iv)
        products.append((np.array(t), np.array(u), np.array(v)))
    first = np.array(first)
    return RootedTrees(order=np.array(order), gamma=np.array(gamma), products=tuple(products),
                       bushy=first[2:] - 1, stems=2 * first[2:-1] - first[1:-2] - 1)


@lru_cache(maxsize=None)
def bushy_trees(N: int) -> RootedTrees:
    """The bushy trees b_1..b_N, then their stems [b_1]..[b_N]."""
    if N < 1:
        raise ValueError("N must be at least 1")
    j = np.arange(1, N + 1)
    products = [(np.array([i]), np.array([i - 1]), np.array([0])) for i in range(1, N)]
    products.append((j + N - 1, np.zeros(N, dtype=int), j - 1))
    gamma = np.concatenate([j, (j + 1) * j]).astype(float)
    return RootedTrees(order=np.concatenate([j, j + 1]), gamma=gamma, products=tuple(products),
                       bushy=j - 1, stems=j + N - 1)


def _tree_system(trees: RootedTrees, w: NDArray) -> NDArray:
    """Right-hand side of the tree system: y_t' = prod of y over t's children."""
    out = np.empty_like(w)
    out[..., 0] = 1.0
    for t, u, v in trees.products:
        out[..., t] = out[..., u] * w[..., v]
    return out


@lru_cache(maxsize=None)
def _exact_back_values(k: int, trees: RootedTrees) -> tuple[NDArray, NDArray]:
    """The k exact back values of the tree system and their f values, read-only."""
    offsets = np.arange(1 - k, 1, dtype=float)
    back = offsets[:, None] ** trees.order / trees.gamma
    fback = _tree_system(trees, back)
    back.setflags(write=False)
    fback.setflags(write=False)
    return back, fback


def elementary_weights(sp: SpijkerForm, trees: RootedTrees) -> tuple[NDArray, NDArray]:
    """Phi(t) of the new step value of a method's Spijker form for every
    tree of the table, and the f values of the s stages as rows.

    The back value j (1-based) is the exact flow at (j - k) h, with
    weights (j - k)^|t| / gamma(t).  Stage i's f value at a stem [t] is
    its weight Phi_i(t).  On a stack of forms the results gain the
    stack's leading axes.
    """
    back, fback = _exact_back_values(sp.k, trees)
    return _spijker_step(sp, back, fback, partial(_tree_system, trees), 1.0)
