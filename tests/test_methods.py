import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sspmsrk.methods import (
    MethodStructureError,
    MSRKMethod,
    _bisect,
    canonical,
    forward_euler,
    ssp_coefficient,
    ssprk33,
    to_spijker,
    validate,
)
from sspmsrk.series import bushy_trees, elementary_weights
from sspmsrk.theory import gen_second_order, r_sk2

from conftest import random_valid_method, stack_forms


class TestValidate:
    def test_forward_euler_valid(self):
        assert validate(forward_euler()).ok

    def test_bad_theta_sum_reported(self):
        m = MSRKMethod(
            s=1, k=2,
            D=[[0.0, 1.0]], Ahat=[[0.0]], A=[[0.0]],
            theta=[0.5, 0.4], bhat=[0.0], b=[1.0],
        )
        report = validate(m)
        assert not report.ok
        assert any("theta sums to 0.9" in v for v in report.violations)

    def test_gen_second_order_valid(self):
        assert validate(gen_second_order(2, 2)).ok

    def test_bad_first_row_of_D(self):
        m = MSRKMethod(
            s=1, k=2,
            D=[[1.0, 0.0]], Ahat=[[0.0]], A=[[0.0]],
            theta=[0.5, 0.5], bhat=[0.0], b=[1.0],
        )
        assert any("row 1 of D" in v for v in validate(m).violations)

    def test_nonexplicit_A(self):
        m = MSRKMethod(
            s=2, k=1,
            D=[[1.0], [1.0]], Ahat=np.zeros((2, 0)), A=[[0.0, 0.5], [0.5, 0.0]],
            theta=[1.0], bhat=[], b=[0.5, 0.5],
        )
        assert any("strictly lower triangular" in v for v in validate(m).violations)

    def test_non_finite_coefficient_reported(self):
        m = MSRKMethod(
            s=3, k=1,
            D=[[1.0], [1.0], [1.0]], Ahat=np.zeros((3, 0)), A=ssprk33().A,
            theta=[1.0], bhat=[], b=[np.nan, 0.3, 0.3],
        )
        assert validate(m).violations[0] == "coefficients must be finite"


class TestSpijker:
    def test_forward_euler_blocks(self):
        sp = to_spijker(forward_euler())
        assert sp.S.shape == (2, 1)
        np.testing.assert_array_equal(sp.S, [[1.0], [1.0]])
        np.testing.assert_array_equal(sp.T, [[0.0, 0.0], [1.0, 0.0]])

    def test_row_sums_exactly_one(self, rng):
        for s, k in [(1, 1), (2, 3), (4, 2), (3, 4)]:
            sp = to_spijker(random_valid_method(rng, s, k))
            np.testing.assert_allclose(sp.S.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_gen_so2_shapes_and_triangularity(self):
        sp = to_spijker(gen_second_order(2, 3))
        assert sp.S.shape == (5, 3)
        assert sp.T.shape == (5, 5)
        assert np.all(np.triu(sp.T) == 0.0)
        # first k-1 rows of T vanish, last column too
        assert np.all(sp.T[:2] == 0.0)
        assert np.all(sp.T[:, -1] == 0.0)

    def test_invalid_method_raises_with_first_violation(self):
        m = MSRKMethod(
            s=1, k=2,
            D=[[0.0, 1.0]], Ahat=[[0.0]], A=[[0.0]],
            theta=[0.5, 0.4], bhat=[0.0], b=[1.0],
        )
        with pytest.raises(MethodStructureError, match="theta sums"):
            to_spijker(m)


class TestCanonical:
    def test_r_zero_is_identity_case(self, rng):
        sp = to_spijker(random_valid_method(rng, 3, 2))
        cf = canonical(sp, 0.0)
        assert np.all(cf.P == 0.0)
        np.testing.assert_array_equal(cf.R, sp.S)

    def test_forward_euler_r_one(self):
        cf = canonical(to_spijker(forward_euler()), 1.0)
        np.testing.assert_allclose(cf.P, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(cf.R, [[1.0], [0.0]], atol=1e-15)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            canonical(to_spijker(forward_euler()), -0.5)

    def test_feasible_at_known_optimum(self):
        sp = to_spijker(gen_second_order(3, 2))
        cf = canonical(sp, r_sk2(3, 2))
        assert min(cf.P.min(), cf.R.min()) >= -1e-10

    def test_row_sums_of_R_P(self, rng):
        for r in [0.0, 0.3, 1.7]:
            sp = to_spijker(random_valid_method(rng, 3, 3))
            cf = canonical(sp, r)
            np.testing.assert_allclose(
                cf.R.sum(axis=1) + cf.P.sum(axis=1), 1.0, rtol=0, atol=1e-10
            )

    def test_solve_residual_is_tiny(self, rng):
        # reconstructing (I + rT) R must recover S to near machine precision
        sp = to_spijker(random_valid_method(rng, 4, 3))
        r = 1.3
        cf = canonical(sp, r)
        M = np.eye(sp.T.shape[0]) + r * sp.T
        np.testing.assert_allclose(M @ cf.R, sp.S, atol=1e-12)
        np.testing.assert_allclose(M @ cf.P, r * sp.T, atol=1e-12)


class TestSSPCoefficient:
    def test_forward_euler(self):
        assert ssp_coefficient(to_spijker(forward_euler())) == pytest.approx(1.0, abs=1e-10)

    def test_ssprk33(self):
        # theoretical value from the classical convex-combination decomposition
        assert ssp_coefficient(to_spijker(ssprk33())) == pytest.approx(1.0, abs=1e-9)

    def test_gen_so2_32(self):
        C = ssp_coefficient(to_spijker(gen_second_order(3, 2)))
        assert C == pytest.approx(2.44949, abs=1e-5)

    def test_infeasible_at_zero_returns_zero(self):
        # S with a negative entry (theta sums to 1 but dips below zero)
        from sspmsrk.methods import SpijkerForm

        S = np.array([[0.0, 1.0], [0.0, 1.0], [-0.5, 1.5]])
        T = np.zeros((3, 3))
        T[2, 1] = 1.0
        assert ssp_coefficient(SpijkerForm(ST=np.hstack([S, T]), k=2, s=1)) == 0.0

    def test_feasibility_interval_sampling(self):
        # nonnegativity must hold at every r below the computed coefficient
        for method in [ssprk33(), gen_second_order(2, 2), gen_second_order(4, 3)]:
            sp = to_spijker(method)
            C = ssp_coefficient(sp)
            for r in np.linspace(0.0, C, 100):
                cf = canonical(sp, r)
                assert min(cf.P.min(), cf.R.min()) >= -1e-10

    def test_first_order_bound(self):
        # the stage-count bound applies to consistent (order >= 1) methods
        methods = [forward_euler(), ssprk33(), gen_second_order(2, 2),
                   gen_second_order(5, 3), gen_second_order(8, 5)]
        for m in methods:
            assert ssp_coefficient(to_spijker(m)) <= m.s + 1e-8

    @pytest.mark.parametrize(
        "b, expected", [([0.0, 0.0], np.inf), ([0.1, 0.0], 10.0), ([1e-6, 0.0], 1e6)]
    )
    def test_bracket_grows_past_s_plus_one(self, b, expected):
        # u^{n+1} = u^n + 0.1 dt f is forward Euler at a tenth of the step;
        # at 1e6 the bisection ends on neighbouring floats, wider than BISECT_TOL
        m = MSRKMethod(s=2, k=1, D=[[1.0], [1.0]], Ahat=np.zeros((2, 0)),
                       A=np.zeros((2, 2)), theta=[1.0], bhat=[], b=b)
        assert ssp_coefficient(to_spijker(m)) == pytest.approx(expected, rel=1e-9, abs=1e-8)


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6, exclude_min=True), st.floats(0.0, 1.0),
           st.just(0.0) | st.floats(0.0, 1e3))
    def test_bracket_keeps_its_ends_and_ends_tight(self, lo, width, frac, tol):
        # passes(x) is x <= t with lo <= t < hi
        hi = lo + width
        t = lo + frac * (hi - lo)
        assume(lo <= t < hi)
        bracket = [lo, hi]

        def passes(x):
            assert bracket[0] < x < bracket[1]
            bracket[0 if x <= t else 1] = x
            return x <= t

        a, b = _bisect(passes, lo, hi, tol)
        assert [a, b] == bracket
        assert a <= t < b
        assert b - a <= tol or b == np.nextafter(a, np.inf)


class TestAbscissae:
    """The abscissae c are the stage weights of the one-node tree tau."""

    @staticmethod
    def _abscissae(method):
        return elementary_weights(to_spijker(method), bushy_trees(1))[1][:, 1]

    def test_forward_euler(self):
        np.testing.assert_array_equal(self._abscissae(forward_euler()), [0.0])

    def test_ssprk33(self):
        np.testing.assert_allclose(self._abscissae(ssprk33()), [0.0, 1.0, 0.5], rtol=0, atol=1e-15)


class TestStacks:
    """Only Spijker forms stack; a method is always one method."""

    @pytest.mark.parametrize("s, k", [(1, 1), (2, 2), (3, 4), (8, 5)])
    def test_spijker_and_canonical_match_members(self, rng, s, k):
        members = [random_valid_method(rng, s, k) for _ in range(5)]
        sp = stack_forms(members)
        for r in [0.0, 0.4, 1.7]:
            cf = canonical(sp, r)
            for i, m in enumerate(members):
                one = to_spijker(m)
                np.testing.assert_allclose(cf.P[i], canonical(one, r).P, rtol=0, atol=1e-14)
                np.testing.assert_allclose(cf.R[i], canonical(one, r).R, rtol=0, atol=1e-14)

    def test_method_with_stacked_coefficients_rejected(self, rng):
        members = [random_valid_method(rng, 2, 2) for _ in range(3)]
        fields = ("D", "Ahat", "A", "theta", "bhat", "b")
        arrays = {f: np.array([getattr(m, f) for m in members]) for f in fields}
        with pytest.raises(ValueError):
            MSRKMethod(s=2, k=2, **arrays)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_random_valid_methods_pass_validation(s, k, seed):
    m = random_valid_method(np.random.default_rng(seed), s, k)
    assert validate(m).ok
