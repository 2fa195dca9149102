import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspmsrk.series import PolynomialODE, TaylorSeries, flow_series


def _linear_problem():
    # F(u) = u in one dimension: exponential flow
    ode = PolynomialODE.random(seed=0, dim=1, degree=1)
    coeffs = np.zeros_like(ode.coefficients)
    coeffs[1, 0] = 1.0  # the degree-1 monomial u_1
    return PolynomialODE(dim=1, degree=1, coefficients=coeffs, seed=0, u0=np.array([1.0]))


def _constant_problem():
    ode = PolynomialODE.random(seed=0, dim=1, degree=1)
    coeffs = np.zeros_like(ode.coefficients)
    coeffs[0, 0] = 1.0  # the constant monomial
    return PolynomialODE(dim=1, degree=1, coefficients=coeffs, seed=0, u0=np.array([0.0]))


class TestFlowSeries:
    def test_exponential(self):
        series = flow_series(_linear_problem(), 3)
        np.testing.assert_allclose(series.coeffs[:, 0], [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_constant_rhs(self):
        series = flow_series(_constant_problem(), 4)
        np.testing.assert_allclose(series.coeffs[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0])

    def test_self_consistency(self):
        # U' - F(U) vanishes through order N-1 for a random quadratic problem
        problem = PolynomialODE.random(seed=99, dim=3, degree=2)
        N = 6
        U = flow_series(problem, N)
        F = problem.eval_on_series(U)
        deriv = np.array([n * U.coeffs[n] for n in range(1, N + 1)])
        np.testing.assert_allclose(deriv, F.coeffs[:N], atol=1e-12)


class TestPolynomialODE:
    def test_coefficients_are_bounded_half_integers(self):
        problem = PolynomialODE.random(seed=5)
        doubled = 2.0 * problem.coefficients
        np.testing.assert_allclose(doubled, np.round(doubled))
        assert np.abs(doubled).max() <= 3.0

    def test_pointwise_matches_series_constant_term(self):
        problem = PolynomialODE.random(seed=11)
        series = TaylorSeries(np.vstack([problem.u0, np.zeros((2, 3))]))
        np.testing.assert_allclose(
            problem.eval_on_series(series).coeffs[0], problem(problem.u0)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolynomialODE(dim=2, degree=2, coefficients=np.zeros((3, 2)),
                          seed=0, u0=np.zeros(2))


def _eval_by_terms(problem, U):
    """F on one series, one monomial at a time with full convolutions."""
    out = np.zeros_like(U)
    for exps, coeffs in zip(problem.exponents, problem.coefficients):
        term = np.eye(len(U))[0]
        for i, e in enumerate(exps):
            for _ in range(e):
                term = np.convolve(term, U[:, i])[: len(U)]
        out += np.outer(term, coeffs)
    return out


@pytest.mark.parametrize("N", range(1, 14))
def test_stacked_eval_matches_members(N):
    problem = PolynomialODE.random(seed=N, dim=3, degree=2)
    stack = np.random.default_rng(N).uniform(-1.0, 1.0, size=(2, 3, N + 1, 3))
    out = problem.eval_on_series(TaylorSeries(stack)).coeffs
    assert out.shape == stack.shape
    for index in np.ndindex(2, 3):
        member = problem.eval_on_series(TaylorSeries(stack[index])).coeffs
        np.testing.assert_allclose(out[index], member, rtol=0, atol=1e-13)
        np.testing.assert_allclose(member, _eval_by_terms(problem, stack[index]),
                                   rtol=0, atol=1e-12)


def _random_series(rng, N=6, m=2):
    return TaylorSeries(rng.uniform(-1.0, 1.0, size=(N + 1, m)))


class TestArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_argument_scaling_composes_multiplicatively(self, seed, a, b):
        series = _random_series(np.random.default_rng(seed))
        lhs = series.scale_argument(a).scale_argument(b)
        rhs = series.scale_argument(a * b)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)
