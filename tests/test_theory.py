import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.optimize import linprog

from sspmsrk import methods, theory
from sspmsrk.methods import (
    BISECT_TOL, ENTRY_TOL, MSRKMethod, _bisect, _horner, forward_euler, ssp_coefficient, ssprk33,
    to_spijker,
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
    stability_polynomials,
    threshold_factor,
)

from conftest import count_builds, method_library, random_valid_method


class TestStabilityPolynomials:
    def test_an_analyze_pass_builds_one_canonical_table(self, monkeypatch):
        # ssp_coefficient and stability_polynomials read the same table on the form
        builds = count_builds(monkeypatch, methods.SpijkerForm, "_table")
        sp = to_spijker(gen_second_order(8, 5))
        ssp_coefficient(sp)
        pols = stability_polynomials(sp)
        linear_order(pols)
        threshold_factor(pols)
        assert len(builds) == 1 and builds[0] is sp

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

    def test_overflowing_table_is_a_floating_point_error(self):
        # at A entries of 1e200 the table of (I + rT)^{-1} S overflows; read
        # from it, psi would end in inf and give a threshold factor of 0.0
        A = np.where(np.tri(3, k=-1) > 0, 1e200, 0.0)
        sp = to_spijker(dataclasses.replace(ssprk33(), A=A))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
                stability_polynomials(sp)


@pytest.mark.parametrize("method", [gen_second_order(3, 2), ssprk33()], ids=lambda m: m.name)
def test_msrk_step_on_linear_problem_matches_stability_polynomials(method):
    # the step kernel on states and the canonical table at r = -z agree
    lam, dt = -1.3, 0.4
    history = [np.array([1.0 + 0.5 * j]) for j in range(method.k)]
    u_next, _ = msrk_step(method, history, [lam * u for u in history], lambda u: lam * u, dt)
    psi = stability_polynomials(to_spijker(method))
    z = lam * dt
    expected = sum(npoly.polyval(z, p) * history[-i][0] for i, p in enumerate(psi, start=1))
    assert u_next[0] == pytest.approx(expected, abs=1e-13)


class TestShiftedBasis:
    """``_shifted_table`` at r is the exact change of basis from monomials in z
    to powers of t = 1 + z/r."""

    def test_identity_polynomial(self):
        # z = r*(t - 1) so the expansion of z in t is (-r, r)
        np.testing.assert_allclose(_horner(theory._shifted_table(np.array([0.0, 1.0])), 2.0),
                                   [-2.0, 2.0])

    def test_binomial(self):
        # (1 + z)^2 at r = 1 is exactly t^2
        np.testing.assert_allclose(_horner(theory._shifted_table(np.array([1.0, 2.0, 1.0])), 1.0),
                                   [0.0, 0.0, 1.0])

    def test_round_trip_evaluation(self, rng):
        psi = rng.standard_normal(5)
        r = 1.7
        gamma = _horner(theory._shifted_table(psi), r)
        for z in [-1.3, 0.0, 0.4]:
            t = 1.0 + z / r
            direct = np.polyval(psi[::-1], z)
            shifted = np.polyval(gamma[::-1], t)
            assert shifted == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestRadiusAbsMonotonicity:
    """The radius of one polynomial psi is ``threshold_factor(psi[None])``."""

    @staticmethod
    def radius(psi):
        return threshold_factor(np.array(psi, dtype=float)[None])

    def test_linear(self):
        # 1 + z is absolutely monotonic up to r = 1
        assert self.radius([1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_truncated_exponential_degree_three(self):
        assert self.radius([1.0, 1.0, 0.5, 1.0 / 6.0]) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_constant_is_infinite(self):
        assert self.radius([0.5]) == math.inf

    def test_negative_coefficient_at_origin(self):
        assert self.radius([1.0, -1.0]) == 0.0

    def test_zero_polynomial_is_infinite(self):
        # a zero row restricts no radius, in a table and alone
        assert self.radius(np.zeros(3)) == math.inf
        assert threshold_factor(np.array([[0.0, 0.0], [1.0, 1.0]])) == pytest.approx(1.0, abs=1e-9)

    def test_scaled_linear_exceeds_default_bracket(self):
        # 1 + z/20 has radius 20, beyond the initial bracket of 2*deg+2
        assert self.radius([1.0, 0.05]) == pytest.approx(20.0, abs=1e-8)

    def test_large_radius_ends_on_neighbouring_floats(self):
        # near 1e6 the spacing of doubles exceeds the bisection width
        assert self.radius([1.0, 1e-6]) == pytest.approx(1e6, rel=1e-9)


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


def test_radii_bisect_tables_not_solves(monkeypatch):
    # both radii evaluate a polynomial table in r; C's boundary guard is one
    # forward substitution, and the threshold factor needs none
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(methods, "canonical")
    for method in method_library():
        calls.clear()
        sp = to_spijker(method)
        ssp_coefficient(sp)
        guard = calls["canonical"]
        assert guard <= 1, (method.name, calls)
        threshold_factor(stability_polynomials(sp))
        assert calls["canonical"] == guard, (method.name, calls)


_BAD_PSIS = [
    ([1.0, 1.0, 0.5], r"psis must be a 2-D array, got shape \(3,\)"),
    ([[[1.0, 1.0]]], r"psis must be a 2-D array, got shape \(1, 1, 2\)"),
    ([[np.nan, 1.0]], "psis must be finite"),
    ([[1.0, 1.0], [0.5, -np.inf]], "psis must be finite"),
]


@pytest.mark.parametrize("function", [threshold_factor, linear_order])
@pytest.mark.parametrize("psis, message", _BAD_PSIS)
def test_bad_psis_rejected(function, psis, message):
    # a 1-D psi such as 1 + z + z^2/2 (radius 1) would read as constant rows, radius inf
    with pytest.raises(ValueError, match=message):
        function(np.array(psis))


class TestLinearOrder:
    def test_forward_euler(self):
        assert linear_order(stability_polynomials(to_spijker(forward_euler()))) == 1

    def test_ssprk33(self):
        assert linear_order(stability_polynomials(to_spijker(ssprk33()))) == 3

    def test_gen_so2(self):
        assert linear_order(stability_polynomials(to_spijker(gen_second_order(3, 3)))) == 2

    @pytest.mark.parametrize("unused", [149, 164, 169, 199])
    def test_forward_euler_with_unused_steps(self, unused):
        # the unused steps' zero rows sized the conditions: their powers overflowed
        # from 149 unused steps on, and 171! did not convert to float from 169 on
        k = unused + 1
        m = MSRKMethod(s=1, k=k, D=[[0.0] * unused + [1.0]], Ahat=np.zeros((1, unused)),
                       A=[[0.0]], theta=[0.0] * unused + [1.0], bhat=np.zeros(unused), b=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linear_order(stability_polynomials(to_spijker(m))) == 1


# random valid methods of up to 5 stages and 4 steps, and the SO2 family
_methods = st.one_of(
    st.builds(lambda seed, s, k: random_valid_method(np.random.default_rng(seed), s, k),
              st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4)),
    st.sampled_from([(s, k) for s in range(2, 9) for k in range(2, 6)]).map(
        lambda sk: gen_second_order(*sk)),
)


def _psi_as_first_written(sp):
    """psi by forward substitution through w = S x + z T w on tables of degree
    by input step, where input x_j is the constant 1 at column j: a flattened
    row holds k columns per degree, and z shifts it by one degree, dropping the
    top degree past s.  The last row of w depends on x_{k+1-i} through psi_i."""
    k, s, n = sp.k, sp.s, sp.k + sp.s
    w = np.zeros((n, (s + 1) * k))
    w[:k, :k] = np.eye(k)
    for i in range(k, n):
        Tw = sp.T[i, :i] @ w[:i]
        w[i] = sp.S[i] @ w[:k]
        w[i, k:] += Tw[:-k]
    return w[-1].reshape(s + 1, k)[:, ::-1].T


def _row_radius_as_first_written(psi):
    """The radius of one nonzero row by a doubling and bisection of its own,
    one radius per call, through npoly."""
    def passes(r):
        gamma = np.array([psi[-1]])
        for c in psi[-2::-1]:
            gamma = npoly.polymul(gamma, [-r, r])
            gamma[0] += c
        return gamma.min() >= -ENTRY_TOL

    deg = int(np.flatnonzero(psi)[-1])
    if psi.min() < -ENTRY_TOL:
        return 0.0
    if deg == 0:
        return math.inf
    lo, hi = 0.0, 2.0 * deg + 2.0
    while passes(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return math.inf
    return _bisect(passes, lo, hi, BISECT_TOL)[0]


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
    # the shifted table of all rows at once is the one of each row
    table = theory._shifted_table(psis)
    assert np.array_equal(table, np.stack([theory._shifted_table(psi) for psi in psis], axis=1))


@settings(max_examples=60, deadline=None)
@given(_methods)
def test_psi_from_the_table_matches_the_forward_substitution(method):
    sp = to_spijker(method)
    psis, reference = stability_polynomials(sp), _psi_as_first_written(sp)
    assert psis.shape == reference.shape == (method.k, method.s + 1)
    assert np.abs(psis - reference).max() <= 1e-13 * np.abs(reference).max()


def test_radii_and_orders_agree_on_both_psi():
    # psi from the table moves in its last bits; what is read from it does not
    for method in method_library():
        sp = to_spijker(method)
        psis, reference = stability_polynomials(sp), _psi_as_first_written(sp)
        assert threshold_factor(psis) == threshold_factor(reference), method.name
        assert linear_order(psis) == linear_order(reference), method.name


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
        # the NNLS residual of this infeasible target shrinks with r, to
        # 1.3e-5 of ||b|| at r = 1e-4, so radii below MIN_POSITIVE_C go unresolved
        assert linear_bound(2, 2, 4) < MIN_POSITIVE_C

    def test_one_step_methods_of_order_s_reach_one(self):
        # R(s, 1, s) = 1 exactly: psi is then the degree-s Taylor polynomial of e^z
        for s in range(1, 9):
            assert abs(linear_bound(s, 1, s) - 1.0) <= LINEAR_BOUND_TOL, s

    @pytest.mark.parametrize("s, k, p", [(4, 2, 6), (5, 2, 7), (6, 1, 6), (7, 1, 3), (7, 1, 7),
                                         (7, 2, 10), (7, 5, 7), (8, 1, 3), (8, 1, 8)])
    def test_matches_a_tight_tolerance_lp(self, s, k, p):
        # an LP feasibility test on the same rows, with feasibility tolerances
        # far below the right side's smallest entry 1/p!, bisected the same way
        def feasible(r):
            m = np.arange(p + 1)
            power = np.array([[math.comb(j, l) for l in m] for j in range(s + 1)]) / r**m
            rows, rhs = theory._linear_conditions(power, k, p)
            rows /= np.abs(rows).max(axis=0)
            res = linprog(np.zeros(rows.shape[1]), A_eq=rows, b_eq=rhs, bounds=(0, None),
                          method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                                   "dual_feasibility_tolerance": 1e-10})
            return res.status == 0

        assert feasible(MIN_POSITIVE_C)
        reference = _bisect(feasible, MIN_POSITIVE_C, float(s), 0.1 * LINEAR_BOUND_TOL)[0]
        assert abs(linear_bound(s, k, p) - reference) <= LINEAR_BOUND_TOL

    def test_bounds_the_threshold_factor_of_the_library(self):
        # R may sit up to about 1e-7 below the exact bound, so a method's
        # threshold factor is only bounded by R + LINEAR_BOUND_TOL
        for m in method_library():
            psis = stability_polynomials(to_spijker(m))
            R = linear_bound(m.s, m.k, linear_order(psis))
            assert threshold_factor(psis) <= R + LINEAR_BOUND_TOL, m.name

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
