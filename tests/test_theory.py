import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sspmsrk.methods import (
    ENTRY_TOL, _largest_feasible, forward_euler, ssp_coefficient, ssprk33, to_spijker,
)
from sspmsrk.orderlab import oracle_order
from sspmsrk.pdelab import msrk_step
from sspmsrk.theory import (
    LINEAR_ORDER_TOL,
    LINEAR_BOUND_TOL,
    MIN_POSITIVE_C,
    gen_second_order,
    linear_bound,
    linear_order,
    r_sk2,
    radius_abs_monotonicity,
    shifted_basis,
    stability_polynomials,
    threshold_factor,
)

from conftest import random_valid_method


class TestStabilityPolynomials:
    def test_forward_euler(self):
        psi = stability_polynomials(to_spijker(forward_euler()))
        np.testing.assert_allclose(psi, [[1.0, 1.0]])

    def test_ssprk33_is_truncated_exponential(self):
        psi = stability_polynomials(to_spijker(ssprk33()))
        np.testing.assert_allclose(psi, [[1.0, 1.0, 0.5, 1.0 / 6.0]])

    def test_consistency_at_zero(self, rng):
        # psi_i(0) must reproduce the theta weights
        m = random_valid_method(rng, 3, 3)
        psi = stability_polynomials(to_spijker(m))
        np.testing.assert_allclose(psi[:, 0], m.theta[::-1], atol=1e-14)

    def test_gen_so2_two_step(self):
        m = gen_second_order(2, 2)
        psi = stability_polynomials(to_spijker(m))
        # psi_1 + psi_2 evaluated at z = 0 must be 1 (consistency)
        assert psi[0][0] + psi[1][0] == pytest.approx(1.0)


@pytest.mark.parametrize("method", [gen_second_order(3, 2), ssprk33()], ids=lambda m: m.name)
def test_msrk_step_on_linear_problem_matches_stability_polynomials(method):
    # the ndarray and the polynomial-table uses of the step kernel agree
    lam, dt = -1.3, 0.4
    history = [np.array([1.0 + 0.5 * j]) for j in range(method.k)]
    u_next, _ = msrk_step(method, history, [lam * u for u in history], lambda u: lam * u, dt)
    psi = stability_polynomials(to_spijker(method))
    z = lam * dt
    expected = sum(npoly.polyval(z, p) * history[-i][0] for i, p in enumerate(psi, start=1))
    assert u_next[0] == pytest.approx(expected, abs=1e-13)


class TestShiftedBasis:
    def test_identity_polynomial(self):
        # z = r*(t - 1) so the expansion of z in t is (-r, r)
        np.testing.assert_allclose(shifted_basis(np.array([0.0, 1.0]), 2.0), [-2.0, 2.0])

    def test_binomial(self):
        # (1 + z)^2 at r = 1 is exactly t^2
        np.testing.assert_allclose(shifted_basis(np.array([1.0, 2.0, 1.0]), 1.0), [0.0, 0.0, 1.0])

    def test_round_trip_evaluation(self, rng):
        psi = rng.standard_normal(5)
        r = 1.7
        gamma = shifted_basis(psi, r)
        for z in [-1.3, 0.0, 0.4]:
            t = 1.0 + z / r
            direct = np.polyval(psi[::-1], z)
            shifted = np.polyval(gamma[::-1], t)
            assert shifted == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            shifted_basis(np.array([1.0, 1.0]), 0.0)


class TestRadiusAbsMonotonicity:
    def test_linear(self):
        # 1 + z is absolutely monotonic up to r = 1
        assert radius_abs_monotonicity(np.array([1.0, 1.0])) == pytest.approx(1.0, abs=1e-9)

    def test_truncated_exponential_degree_three(self):
        psi = np.array([1.0, 1.0, 0.5, 1.0 / 6.0])
        assert radius_abs_monotonicity(psi) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_constant_is_infinite(self):
        assert radius_abs_monotonicity(np.array([0.5])) == math.inf

    def test_negative_coefficient_at_origin(self):
        assert radius_abs_monotonicity(np.array([1.0, -1.0])) == 0.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            radius_abs_monotonicity(np.zeros(3))

    def test_scaled_linear_exceeds_default_bracket(self):
        # 1 + z/20 has radius 20, beyond the initial bracket of 2*deg+2
        assert radius_abs_monotonicity(np.array([1.0, 0.05])) == pytest.approx(20.0, abs=1e-8)

    def test_large_radius_ends_on_neighbouring_floats(self):
        # near 1e6 the spacing of doubles exceeds the bisection width
        assert radius_abs_monotonicity(np.array([1.0, 1e-6])) == pytest.approx(1e6, rel=1e-9)


class TestThresholdFactor:
    def test_forward_euler(self):
        psi = stability_polynomials(to_spijker(forward_euler()))
        assert threshold_factor(psi) == pytest.approx(1.0, abs=1e-9)

    def test_bounds_ssp_coefficient(self):
        # C <= threshold factor for every method (linear problems are a subset)
        for m in [forward_euler(), ssprk33(), gen_second_order(2, 2),
                  gen_second_order(4, 3), gen_second_order(6, 5)]:
            sp = to_spijker(m)
            C = ssp_coefficient(sp)
            assert C <= threshold_factor(stability_polynomials(sp)) + 1e-8

    def test_gen_so2_attains_optimum(self):
        for s, k in [(2, 2), (3, 2), (5, 3), (8, 5)]:
            psi = stability_polynomials(to_spijker(gen_second_order(s, k)))
            assert threshold_factor(psi) == pytest.approx(r_sk2(s, k), abs=1e-8)


class TestLinearOrder:
    def test_forward_euler(self):
        assert linear_order(stability_polynomials(to_spijker(forward_euler()))) == 1

    def test_ssprk33(self):
        assert linear_order(stability_polynomials(to_spijker(ssprk33()))) == 3

    def test_gen_so2(self):
        assert linear_order(stability_polynomials(to_spijker(gen_second_order(3, 3)))) == 2


# random valid methods of up to 5 stages and 4 steps, and the SO2 family
_methods = st.one_of(
    st.builds(lambda seed, s, k: random_valid_method(np.random.default_rng(seed), s, k),
              st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4)),
    st.sampled_from([(s, k) for s in range(2, 9) for k in range(2, 6)]).map(
        lambda sk: gen_second_order(*sk)),
)


def _row_radius_as_first_written(psi):
    """The radius of one nonzero row by a bisection of its own, through npoly."""
    def shifted(r):
        gamma = np.array([psi[-1]])
        for c in psi[-2::-1]:
            gamma = npoly.polymul(gamma, [-r, r])
            gamma[0] += c
        return gamma

    deg = int(np.flatnonzero(psi)[-1])
    if psi.min() < -ENTRY_TOL:
        return 0.0
    if deg == 0:
        return math.inf
    return _largest_feasible(lambda r: shifted(r).min() >= -ENTRY_TOL, 2.0 * deg + 2.0)


def _linear_order_as_first_written(psis):
    """Linear order from each psi_i times the series of e^{-(i-1)z}, through npoly."""
    N = max(int(np.flatnonzero(psi)[-1]) if psi.any() else -1 for psi in psis) + len(psis) + 4
    total = np.zeros(N + 1)
    for i, psi in enumerate(psis, start=1):
        shift = np.array([(-(i - 1.0)) ** n / math.factorial(n) for n in range(N + 1)])
        prod = npoly.polymul(psi, shift)[: N + 1]
        total[: len(prod)] += prod
    expz = np.array([1.0 / math.factorial(n) for n in range(N + 1)])
    failed = np.flatnonzero(np.abs(total - expz) > LINEAR_ORDER_TOL)
    return max(int(failed[0]) - 1, 0) if failed.size else N


@settings(max_examples=60, deadline=None)
@given(_methods)
def test_threshold_factor_is_the_least_row_radius(method):
    psis = stability_polynomials(to_spijker(method))
    radii = [_row_radius_as_first_written(psi) for psi in psis if psi.any()]
    factor = threshold_factor(psis)
    assert type(factor) is float
    assert factor == pytest.approx(min(radii), rel=0, abs=1e-9)
    # the change of basis of all rows at once is the one of each row
    r = 0.5 + factor if math.isfinite(factor) else 1.5
    assert np.array_equal(shifted_basis(psis, r), [shifted_basis(psi, r) for psi in psis])


@settings(max_examples=60, deadline=None)
@given(_methods)
def test_linear_order_matches_the_series_product(method):
    psis = stability_polynomials(to_spijker(method))
    order = linear_order(psis)
    assert type(order) is int
    assert order == _linear_order_as_first_written(psis)


class TestLinearBound:
    def test_second_order_is_r_sk2(self):
        for s in range(2, 9):
            for k in range(2, 6):
                assert linear_bound(s, k, 2) == pytest.approx(r_sk2(s, k), abs=1e-6), (s, k)

    @pytest.mark.parametrize("s, k, p, ceff", [(2, 2, 3, 0.36603), (3, 2, 3, 0.55019)])
    def test_third_order_published_values(self, s, k, p, ceff):
        assert round(linear_bound(s, k, p) / s, 5) == ceff

    def test_no_positive_bound_for_two_two_four(self):
        # HiGHS accepts this target at r = 1e-4, below the radii the bound resolves
        assert linear_bound(2, 2, 4) < MIN_POSITIVE_C

    def test_bounds_the_ssp_coefficient(self):
        for m in [ssprk33()] + [gen_second_order(s, k) for s in range(2, 9) for k in range(2, 6)]:
            R = linear_bound(m.s, m.k, oracle_order(m, pmax=4))
            assert ssp_coefficient(to_spijker(m)) <= R + LINEAR_BOUND_TOL, m.name

    @pytest.mark.parametrize("s, k, p", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_bad_arguments(self, s, k, p):
        with pytest.raises(ValueError, match="must be at least 1"):
            linear_bound(s, k, p)


class TestRsk2:
    # values published to five decimals for the optimal second-order
    # effective coefficient r_sk2(s, k) / s
    TABLE = {
        (2, 2): 0.70711, (3, 2): 0.81650, (4, 2): 0.86603,
        (5, 2): 0.89443, (6, 2): 0.91287, (8, 2): 0.93541,
        (2, 3): 0.80902, (4, 3): 0.91144, (8, 3): 0.95711,
        (2, 4): 0.86038, (5, 4): 0.94797, (8, 4): 0.96798,
        (2, 5): 0.89039, (6, 5): 0.96573, (8, 5): 0.97448,
    }

    def test_table_values(self):
        for (s, k), target in self.TABLE.items():
            assert r_sk2(s, k) / s == pytest.approx(target, abs=5e-6)

    def test_two_two(self):
        assert r_sk2(2, 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_monotone_in_s_and_k(self):
        for s in range(2, 9):
            for k in range(2, 6):
                assert r_sk2(s + 1, k) > r_sk2(s, k)
                assert r_sk2(s, k + 1) > r_sk2(s, k)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            r_sk2(0, 2)
        with pytest.raises(ValueError):
            r_sk2(3, 1)


class TestGenSecondOrder:
    def test_ssp_coefficient_matches_r_sk2(self):
        for s, k in [(2, 2), (3, 2), (4, 4), (8, 5)]:
            C = ssp_coefficient(to_spijker(gen_second_order(s, k)))
            assert C == pytest.approx(r_sk2(s, k), abs=1e-8)

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            gen_second_order(1, 2)
        with pytest.raises(ValueError):
            gen_second_order(2, 1)
