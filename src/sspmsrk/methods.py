"""Explicit multistep Runge-Kutta methods and their monotonicity analysis.

A method with s stages and k steps is stored in coefficient form
(D, Ahat, A, theta, bhat, b).  For monotonicity analysis it is rewritten
as the single update w = S x + dt * T f, and the convex-combination
rewrite at parameter r >= 0 gives matrices (P, R) whose componentwise
nonnegativity certifies strong stability preservation for
dt <= r * dt_FE.  The largest such r is the coefficient computed by
``ssp_coefficient``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "MSRKMethod",
    "SpijkerForm",
    "CanonicalForm",
    "ValidationReport",
    "MethodStructureError",
    "validate",
    "to_spijker",
    "canonical",
    "ssp_coefficient",
    "forward_euler",
    "ssprk33",
]

#: slack of a nonnegativity test: on entries of P and R, and on the
#: shifted-basis coefficients of ``theory.threshold_factor``
ENTRY_TOL = 1e-12
#: bisection width for the SSP coefficient and absolute-monotonicity radii
BISECT_TOL = 1e-10


class MethodStructureError(ValueError):
    """Raised when a structurally invalid method is used where validity is required."""


def _coefficient_shapes(s: int, k: int) -> dict[str, tuple[int, ...]]:
    """Shape of each coefficient array of one s-stage, k-step method."""
    return {"D": (s, k), "Ahat": (s, k - 1), "A": (s, s),
            "theta": (k,), "bhat": (k - 1,), "b": (s,)}


@dataclass(frozen=True, eq=False)
class MSRKMethod:
    """An explicit s-stage, k-step method in coefficient form.

    Stage i combines the k previous steps through row i of ``D``, their
    derivatives through ``Ahat``, and earlier stage derivatives through
    the strictly lower triangular ``A``.  The new step combines previous
    steps through ``theta`` and derivatives through ``bhat`` and ``b``.
    The method keeps read-only copies of the arrays it is given.  Methods
    compare and hash by identity.
    """

    s: int
    k: int
    D: NDArray
    Ahat: NDArray
    A: NDArray
    theta: NDArray
    bhat: NDArray
    b: NDArray
    name: str = "unnamed"
    claimed_order: int = 1

    def __post_init__(self):
        if self.s < 1 or self.k < 1:
            raise MethodStructureError("s and k must be at least 1")
        for key, shape in _coefficient_shapes(self.s, self.k).items():
            arr = np.array(getattr(self, key), dtype=float).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @cached_property
    def _spijker(self) -> SpijkerForm:
        """The validated Spijker form; see :func:`to_spijker`."""
        report = validate(self)
        if not report.ok:
            raise MethodStructureError(report.violations[0])
        where, fixed = _spijker_layout(self.s, self.k)
        ST = fixed.copy()
        for key, pos in where.items():
            ST[pos] = getattr(self, key)
        return SpijkerForm(ST.reshape(self.k + self.s, 2 * self.k + self.s))


@dataclass(frozen=True, eq=False)
class SpijkerForm:
    """The representation w = S x + dt * T f, held as one read-only copy
    ``ST`` = [S | T] of the matrix it is given, of shape (k+s, 2k+s), from
    which k and s are read; ``S`` and ``T`` are views of it.

    A stack of forms carries its leading axes on ST.  A matrix of fewer
    than two axes, or of a shape that gives k < 1 or s < 1, raises
    :class:`MethodStructureError`.  Forms compare and hash by identity.
    """

    ST: NDArray
    k: int = field(init=False)
    s: int = field(init=False)
    S: NDArray = field(init=False, repr=False)
    T: NDArray = field(init=False, repr=False)

    def __post_init__(self):
        ST = np.array(self.ST)
        rows, cols = ST.shape[-2:] if ST.ndim >= 2 else (0, 0)
        k, s = cols - rows, 2 * rows - cols
        if k < 1 or s < 1:
            raise MethodStructureError(f"a Spijker form needs shape (k+s, 2k+s) with k, s >= 1, "
                                       f"got {ST.shape}")
        ST.setflags(write=False)
        object.__setattr__(self, "ST", ST)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "S", ST[..., :k])
        object.__setattr__(self, "T", ST[..., k:])

    @cached_property
    def _table(self) -> NDArray:
        """[R | P] as a polynomial table in r: row j holds the coefficients of r^j.

        T is strictly lower triangular with s nonzero rows, so (I + rT)^{-1}
        = sum_{j<=s} (-rT)^j and X = (I + rT)^{-1} [S | T] = sum_j r^j M_j,
        with M_0 = [S | T] and M_{j+1} = -T M_j.  R = X_S takes rows 0..s
        and P = r X_T rows 1..s+1, for a form or a stack.  Raises
        FloatingPointError when an M_j overflows.
        """
        k, s = self.k, self.s
        M = [self.ST]
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(s):
                M.append(-self.T @ M[-1])
        M = np.array(M)
        table = np.zeros((s + 2,) + self.ST.shape)
        table[:-1, ..., :k] = M[..., :k]
        table[1:, ..., k:] = M[..., k:]
        table.setflags(write=False)
        return table

    @cached_property
    def _C(self) -> float:
        """The SSP coefficient; see :func:`ssp_coefficient`."""
        if self.S.min() < -ENTRY_TOL:
            return 0.0
        lo = _largest_nonnegative(self._table, float(self.s + 1))
        # guard against a false positive exactly at the boundary, by forward substitution
        if 0.0 < lo < math.inf and not _feasible(self, lo * (1.0 - 1e-9)):
            return 0.0
        return lo


@dataclass(frozen=True)
class CanonicalForm:
    """Matrices of the convex-combination rewrite at parameter r."""

    P: NDArray
    R: NDArray


@dataclass
class ValidationReport:
    """Collected invariant violations; an empty list means the method is valid."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_CONSISTENCY_TOL = 1e-12


def validate(method: MSRKMethod) -> ValidationReport:
    """Check the structural invariants of an explicit MSRK method.

    Diagnostic only: all violations are collected, nothing is raised.
    """
    v: list[str] = []
    k = method.k

    arrays = (method.D, method.Ahat, method.A, method.theta, method.bhat, method.b)
    if not all(np.isfinite(a).all() for a in arrays):
        v.append("coefficients must be finite")

    first_row = np.zeros(k)
    first_row[-1] = 1.0
    if np.any(method.D[0] != first_row):
        v.append(f"row 1 of D must be {first_row.tolist()}, got {method.D[0].tolist()}")
    if np.any(method.A[0] != 0.0):
        v.append("row 1 of A must be identically zero")
    if k > 1 and np.any(method.Ahat[0] != 0.0):
        v.append("row 1 of Ahat must be identically zero")

    if np.any(np.triu(method.A) != 0.0):
        v.append("A must be strictly lower triangular (explicit method)")

    for i, rs in enumerate(method.D.sum(axis=1)):
        if abs(rs - 1.0) > _CONSISTENCY_TOL:
            v.append(f"row {i + 1} of D sums to {rs:.17g} != 1")
    theta_sum = method.theta.sum()
    if abs(theta_sum - 1.0) > _CONSISTENCY_TOL:
        v.append(f"theta sums to {theta_sum:.17g} != 1")

    return ValidationReport(v)


@lru_cache(maxsize=None)
def _spijker_layout(s: int, k: int) -> tuple[dict[str, NDArray], NDArray]:
    """Where the Spijker form of an (s, k) method keeps its coefficients.

    Positions are flat indices into [S | T], row by row: one index array
    per coefficient array, shaped like it, in ``_coefficient_shapes``
    order.  Also returns the flat [S | T] of the fixed part, the identity
    block S[:k-1, :k-1], with zeros elsewhere.  Every array is read-only.
    """
    n = k + s
    ST = np.arange(n * (k + n)).reshape(n, k + n)
    S, T = ST[:, :k], ST[:, k:]
    stages = slice(k - 1, k - 1 + s)
    where = {"D": S[stages], "Ahat": T[stages, : k - 1], "A": T[stages, stages],
             "theta": S[n - 1], "bhat": T[n - 1, : k - 1], "b": T[n - 1, stages]}
    fixed = np.zeros(n * (k + n))
    fixed[np.diagonal(S)[: k - 1]] = 1.0
    for arr in (*where.values(), fixed):
        arr.setflags(write=False)
    return where, fixed


def to_spijker(method: MSRKMethod) -> SpijkerForm:
    """Assemble [S | T] from the block matrices S ((k+s) x k) and T ((k+s) x (k+s)).

    The method is validated on the first call and the result is kept on
    the method.  Raises :class:`MethodStructureError` naming the first
    violated invariant if the method is invalid.
    """
    return method._spijker


def _spijker_step(sp: SpijkerForm, x: NDArray, fx: NDArray, f, h: float):
    """One step as the forward substitution w_i = sum_j S_ij x_j + h sum_{j<i} T_ij f(w_j).

    ``x`` and ``fx`` are (k, M) arrays: the k inputs and their f values as
    rows.  Rows 0..k-1 of w are the inputs themselves; rows k..n-1 are
    computed, with step size ``h``.  Returns the last row and the f values
    of the s stages as rows.
    A stack of forms steps every member from the same inputs; ``f`` and
    the results then carry the stack's leading axes.
    """
    S, T, k, n = sp.S, sp.T, sp.k, sp.k + sp.s
    F = np.empty(S.shape[:-2] + (n - 1, x.shape[1]))
    F[..., :k, :] = fx
    for i in range(k, n):
        w = S[..., i, :] @ x + h * (T[..., i, None, :i] @ F[..., :i, :])[..., 0, :]
        if i < n - 1:
            F[..., i, :] = f(w)
    return w, F[..., k - 1 :, :]


def canonical(sp: SpijkerForm, r: float) -> CanonicalForm:
    """Compute P = r (I + rT)^{-1} T and R = (I + rT)^{-1} S.

    T is strictly lower triangular and its first k rows are zero, so
    X = (I + rT)^{-1} [S | T] is found by forward substitution, row i of
    [S | T] less r T[i, :i] X[:i], for every member of a stack.  Raises
    FloatingPointError when a row overflows.
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    k, n = sp.k, sp.k + sp.s
    X = sp.ST.copy()
    with np.errstate(over="raise", invalid="raise"):
        rT = r * sp.T
        for i in range(k, n):
            X[..., i : i + 1, :] -= rT[..., i : i + 1, :i] @ X[..., :i, :]
        P = r * X[..., k:]
    return CanonicalForm(P=P, R=X[..., :k])


def _feasible(sp: SpijkerForm, r: float) -> bool:
    cf = canonical(sp, r)
    return min(cf.P.min(), cf.R.min()) >= -ENTRY_TOL


def _bisect(passes, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve a bracket with ``passes(lo)`` and not ``passes(hi)``, calling
    ``passes`` only strictly inside it, until it is at most ``tol`` wide
    or its ends are neighbouring floats, which no midpoint can split."""
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _horner(coef: NDArray, r: float) -> NDArray:
    """The polynomial table ``coef``, whose row j holds the coefficients of r^j, at r."""
    v = coef[-1]
    for c in coef[-2::-1]:
        v = v * r + c
    return v


def _largest_nonnegative(coef: NDArray, hi: float) -> float:
    """Largest r at which every entry of the polynomial table ``coef``,
    whose row j holds the coefficients of r^j, is at least -ENTRY_TOL,
    for a feasible set [0, r*].

    The bracket [0, hi] doubles while hi passes; past 1e12 the radius
    counts as unbounded and inf is returned.  Otherwise the bracket is
    bisected to BISECT_TOL, or to neighbouring floats from about 5e5 up,
    where the spacing of doubles reaches BISECT_TOL.  A radius at which
    Horner's rule overflows or meets a NaN fails, without a warning.
    """
    coef = coef.reshape(len(coef), -1)  # a flat table evaluates about twice as fast

    def passes(r: float) -> bool:
        try:
            with np.errstate(over="raise", invalid="raise"):
                return bool(_horner(coef, r).min() >= -ENTRY_TOL)
        except FloatingPointError:
            return False

    lo = 0.0
    while passes(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return math.inf
    return _bisect(passes, lo, hi, BISECT_TOL)[0]


def ssp_coefficient(sp: SpijkerForm) -> float:
    """Largest r, to BISECT_TOL, at which the float P and R clear -ENTRY_TOL.

    P and R are evaluated as polynomials in r (the form's ``_table``).
    The bracket starts at s+1, above the first-order threshold bound s,
    and doubles while the canonical form is still feasible there; a
    method still feasible past 1e12 (one that never uses f, say) gets
    inf.  Returns 0.0 when S itself has a negative entry.  Rounding can
    put the result on either side of the exact coefficient.  Raises
    FloatingPointError when the table overflows.  The result is kept on
    the form.
    """
    return sp._C


def forward_euler() -> MSRKMethod:
    return MSRKMethod(
        s=1, k=1,
        D=[[1.0]], Ahat=np.zeros((1, 0)), A=[[0.0]],
        theta=[1.0], bhat=[], b=[1.0],
        name="FE", claimed_order=1,
    )


def ssprk33() -> MSRKMethod:
    """The classical three-stage, third-order SSP Runge-Kutta method."""
    A = [[0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0],
         [0.25, 0.25, 0.0]]
    b = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]
    return MSRKMethod(
        s=3, k=1,
        D=[[1.0], [1.0], [1.0]], Ahat=np.zeros((3, 0)), A=A,
        theta=[1.0], bhat=[], b=b,
        name="SSPRK(3,3)", claimed_order=3,
    )
