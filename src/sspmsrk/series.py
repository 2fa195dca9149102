"""Truncated Taylor series arithmetic and random polynomial ODE problems.

A series holds coefficients of h^0 .. h^N with vector values, so it
represents a curve u(h) in R^m through order N.  All operations
truncate exactly at order N; nothing beyond h^N is ever kept.  These
series drive the polynomial-identity order oracle: one step of a
method, executed entirely in series arithmetic on a polynomial ODE,
is compared against the exact local flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
from numpy.typing import NDArray

__all__ = ["TaylorSeries", "PolynomialODE", "flow_series"]


def _truncated_product(a: NDArray, b: NDArray) -> NDArray:
    """Cauchy products c[..., n] = sum_{j<=n} a[..., j] b[..., n-j] of
    stacked scalar coefficient rows, truncated to their common length."""
    lag = np.subtract.outer(np.arange(a.shape[-1]), np.arange(a.shape[-1]))
    toeplitz = np.where(lag >= 0, b[..., np.maximum(lag, 0)], 0.0)
    return (toeplitz @ a[..., None])[..., 0]


@dataclass(frozen=True)
class TaylorSeries:
    """Vector-valued power series in h, truncated at a fixed order.

    ``coeffs`` has shape (N+1, m): row n is the coefficient of h^n.  A
    stack of series puts its leading axes before these two.
    """

    coeffs: NDArray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        object.__setattr__(self, "coeffs", arr)
        arr.setflags(write=False)

    @property
    def order(self) -> int:
        return self.coeffs.shape[-2] - 1

    def scale_argument(self, a: float) -> "TaylorSeries":
        """The series of h -> u(a*h): coefficient n picks up a factor a^n."""
        powers = a ** np.arange(self.order + 1)
        return TaylorSeries(self.coeffs * powers[:, None])


def _monomial_exponents(m: int, degree: int) -> NDArray:
    rows = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(m), total):
            e = [0] * m
            for i in combo:
                e[i] += 1
            rows.append(e)
    return np.array(rows, dtype=int)


@dataclass(frozen=True)
class PolynomialODE:
    """u' = F(u) with each component of F a random multivariate polynomial.

    Coefficients are half-integers in [-1.5, 1.5] (integers in [-3, 3]
    scaled by 1/2) to keep series arithmetic well away from overflow.
    """

    dim: int
    degree: int
    coefficients: NDArray  # (nterms, dim), term t feeds component j via [t, j]
    seed: int
    u0: NDArray
    exponents: NDArray = field(init=False, repr=False)
    # per degree d: (monomials of degree d, each one's parent of degree d-1,
    # the variable that multiplies the parent)
    levels: tuple = field(init=False, repr=False)
    # series derived from this problem (flow, back values), keyed by their use
    cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        exps = _monomial_exponents(self.dim, self.degree)
        if self.coefficients.shape != (len(exps), self.dim):
            raise ValueError("coefficient tensor shape does not match monomial count")
        object.__setattr__(self, "exponents", exps)
        index = {tuple(e): t for t, e in enumerate(exps)}
        var = np.array([0] + [np.nonzero(e)[0][-1] for e in exps[1:]])
        parent = np.array([0] + [index[tuple(e - (np.arange(self.dim) == i))]
                                 for e, i in zip(exps[1:], var[1:])])
        levels = [np.nonzero(exps.sum(axis=1) == d)[0] for d in range(1, self.degree + 1)]
        object.__setattr__(self, "levels", tuple((t, parent[t], var[t]) for t in levels))

    @classmethod
    def random(cls, seed: int, dim: int = 3, degree: int = 2) -> "PolynomialODE":
        rng = np.random.default_rng(seed)
        nterms = len(_monomial_exponents(dim, degree))
        coefficients = rng.integers(-3, 4, size=(nterms, dim)).astype(float) / 2.0
        u0 = rng.integers(-3, 4, size=dim).astype(float) / 2.0
        return cls(dim=dim, degree=degree, coefficients=coefficients, seed=seed, u0=u0)

    def __call__(self, u: NDArray) -> NDArray:
        """Pointwise evaluation of F."""
        u = np.asarray(u, dtype=float)
        mono = np.prod(u[None, :] ** self.exponents, axis=1)
        return mono @ self.coefficients

    def eval_on_series(self, series: TaylorSeries) -> TaylorSeries:
        """F applied to a series argument, truncated at the argument's order.

        The monomials are built degree by degree, each the truncated
        product of its parent monomial and one variable, over every
        series of a stack at once.
        """
        U = np.swapaxes(series.coeffs, -1, -2)
        mono = np.zeros(U.shape[:-2] + (len(self.exponents), U.shape[-1]))
        mono[..., 0, 0] = 1.0
        for terms, parents, variables in self.levels:
            mono[..., terms, :] = _truncated_product(mono[..., parents, :], U[..., variables, :])
        return TaylorSeries(np.swapaxes(mono, -1, -2) @ self.coefficients)


def flow_series(problem: PolynomialODE, N: int) -> TaylorSeries:
    """Truncated series of the exact solution through u0, by Picard iteration.

    Each sweep U <- u0 + integral of F(U) fixes one further coefficient,
    so N sweeps determine the series exactly through order N.  Results
    are cached on the problem: the flow is queried once per residual
    evaluation in the optimizer's inner loop.
    """
    if N > 40:
        raise ValueError("truncation order is unreasonably large")
    cached = problem.cache.get(("flow", N))
    if cached is not None:
        return cached
    U = np.zeros((N + 1, problem.dim))
    U[0] = problem.u0
    for _ in range(N):
        G = problem.eval_on_series(TaylorSeries(U)).coeffs
        nxt = np.zeros_like(U)
        nxt[0] = problem.u0
        for n in range(1, N + 1):
            nxt[n] = G[n - 1] / n
        U = nxt
    result = TaylorSeries(U)
    problem.cache[("flow", N)] = result
    return result
