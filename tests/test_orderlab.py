import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from conftest import random_valid_method, same_bits, stack_forms
from sspmsrk import orderlab
from sspmsrk.methods import MSRKMethod, forward_euler, ssprk33, to_spijker
from sspmsrk.msrkio import read_method
from sspmsrk.orderlab import (
    _bushy_defects,
    convergence_order,
    oracle_order,
    order_residual_vector,
    stage_order,
)
from sspmsrk.series import bushy_trees, elementary_weights, rooted_trees
from sspmsrk.theory import gen_second_order

BENCH_METHODS = Path(__file__).resolve().parents[1] / "perfbench" / "methods"


def _quadrature_defects(m, j):
    """Stage and final quadrature defects of degree j from the coefficients,
    divided by (j-1)!: the back values sit at x = 1-k, ..., 0 and stage i
    at c_i = D_i x + sum(Ahat_i) + sum(A_i)."""
    x = np.arange(1 - m.k, 1, dtype=float)
    c = m.D @ x + m.Ahat.sum(axis=1) + m.A.sum(axis=1)
    stage = (m.D @ x**j - c**j) / j + m.Ahat @ x[:-1] ** (j - 1) + m.A @ c ** (j - 1)
    final = (m.theta @ x**j - 1.0) / j + m.bhat @ x[:-1] ** (j - 1) + m.b @ c ** (j - 1)
    return stage / math.factorial(j - 1), final / math.factorial(j - 1)


def _quadrature_stage_order(m):
    q = 0
    for j in range(1, 14):
        stage, final = _quadrature_defects(m, j)
        if np.abs(stage).max() > 1e-10 or abs(final) > 1e-10:
            break
        q = j
    return q


def _reference_methods():
    rng = np.random.default_rng(31)
    ms = [forward_euler(), ssprk33(), gen_second_order(3, 2), gen_second_order(2, 4)]
    ms += [random_valid_method(rng, s, k) for s in (1, 2, 4, 6) for k in (1, 3, 5)]
    return ms + [read_method(BENCH_METHODS / name) for name in ("opt_2_2_3.msrk", "opt_2_3_4.msrk")]


def _defects(method, N, trees=None):
    """The bushy defects of j <= N from the weights on ``bushy_trees(N)``,
    or on ``trees``."""
    trees = trees or bushy_trees(N)
    return _bushy_defects(trees, *elementary_weights(to_spijker(method), trees), N)


class TestBushyTrees:
    def test_first_stage_defect_vanishes_by_construction(self):
        for m in [forward_euler(), ssprk33(), gen_second_order(3, 4)]:
            np.testing.assert_array_equal(_defects(m, 1)[1], 0.0)

    def test_forward_euler_step_defect(self):
        step, _ = _defects(forward_euler(), 2)
        assert step[1] == pytest.approx(-0.5)

    def test_ssprk33_defects(self):
        step, stage = _defects(ssprk33(), 4)
        # b.c^3 = 1/4 holds too, yet the nonlinear order is 3:
        # the bushy conditions are necessary only
        np.testing.assert_allclose(step, 0.0, rtol=0, atol=1e-14)
        assert np.abs(stage[:, 1]).max() > 1e-3  # stage order is only 1

    def test_stage_order_matches_quadrature(self):
        methods = _reference_methods()
        orders = [stage_order(m) for m in methods]
        assert orders == [_quadrature_stage_order(m) for m in methods]
        assert orders[-2:] == [2, 3]

    @pytest.mark.parametrize("p", [5, 6, 7, 8])
    def test_stage_rows_are_negated_quadrature_residuals(self, p):
        for m in _reference_methods():
            rows = order_residual_vector(to_spijker(m), p)[len(rooted_trees(p).order):]
            ref = np.concatenate([_quadrature_defects(m, j)[0] for j in range(2, (p - 1) // 2 + 1)])
            np.testing.assert_allclose(rows, ref, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("N", range(1, 8))
    def test_every_table_gives_the_same_defects(self, N):
        for m in _reference_methods():
            bushy, rooted = _defects(m, N), _defects(m, N, rooted_trees(N + 1))
            assert same_bits(bushy[0], rooted[0]) and same_bits(bushy[1], rooted[1])


class TestStageOrder:
    def test_forward_euler(self):
        assert stage_order(forward_euler()) == 1

    def test_ssprk33(self):
        assert stage_order(ssprk33()) == 1

    def test_gen_so2(self):
        assert stage_order(gen_second_order(4, 3)) >= 1


class TestOracleOrder:
    def test_forward_euler(self):
        assert oracle_order(forward_euler(), pmax=3) == 1

    def test_ssprk33(self):
        assert oracle_order(ssprk33(), pmax=5) == 3

    def test_gen_so2_is_second_order_not_third(self):
        m = gen_second_order(2, 2)
        assert oracle_order(m, pmax=4) == 2

    def test_seed_independence(self):
        m = gen_second_order(3, 2)
        assert oracle_order(m, seed=1) == oracle_order(m, seed=987654321)

    def test_bushy_tree_condition_is_seen(self):
        # a vertex with three children has F''' in its elementary
        # differential, which vanishes on quadratic test problems
        m = _rk4_with_bc3(0.3)
        assert oracle_order(m, pmax=6) == 3
        assert oracle_order(_rk4_with_bc3(0.25), pmax=6) == 4


def _rk4_with_bc3(bc3):
    """A 4-stage explicit Runge-Kutta method meeting the seven order-4
    conditions other than b.c^3 = 1/4, with b.c^3 = bc3 instead."""

    def unpack(x):
        A = np.zeros((4, 4))
        A[np.tril_indices(4, -1)] = x[:6]
        return A, x[6:]

    def conditions(x):
        A, b = unpack(x)
        c = A.sum(axis=1)
        return [b.sum() - 1, b @ c - 1 / 2, b @ c**2 - 1 / 3, b @ c**3 - bc3,
                b @ A @ c - 1 / 6, b @ (c * (A @ c)) - 1 / 8, b @ A @ c**2 - 1 / 12,
                b @ A @ A @ c - 1 / 24]

    x0 = np.array([0.5, 0.0, 0.5, 0.0, 0.0, 1.0, 1 / 6, 1 / 3, 1 / 3, 1 / 6])  # classical RK4
    sol = least_squares(conditions, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.abs(conditions(sol.x)).max() < 1e-12
    A, b = unpack(sol.x)
    return MSRKMethod(s=4, k=1, D=np.ones((4, 1)), Ahat=np.zeros((4, 0)), A=A,
                      theta=[1.0], bhat=[], b=b, claimed_order=4)


class TestOrderResidualVector:
    def test_ssprk33_satisfies_order_three(self):
        r = order_residual_vector(to_spijker(ssprk33()), 3)
        assert np.abs(r).max() <= 1e-12

    def test_ssprk33_fails_order_four(self):
        r = order_residual_vector(to_spijker(ssprk33()), 4)
        assert np.abs(r).max() > 1e-3

    def test_gen_so2_family_is_second_order(self):
        r = order_residual_vector(to_spijker(gen_second_order(5, 4)), 2)
        assert np.abs(r).max() <= 1e-10

    @pytest.mark.parametrize("p", range(1, 9))
    def test_one_tree_pass(self, monkeypatch, p):
        calls = []

        def counting(sp, trees):
            calls.append(trees)
            return elementary_weights(sp, trees)

        monkeypatch.setattr(orderlab, "elementary_weights", counting)
        order_residual_vector(to_spijker(gen_second_order(4, 3)), p)
        assert calls == [rooted_trees(p)]

    @pytest.mark.parametrize("p", [5, 6, 7, 8])
    def test_same_bits_as_two_passes(self, p):
        rng = np.random.default_rng(p)
        for s, k in [(2, 2), (3, 3), (5, 3), (4, 2)]:
            sp = stack_forms([random_valid_method(rng, s, k) for _ in range(5)])
            assert same_bits(order_residual_vector(sp, p), _two_pass_residuals(sp, p)), (s, k)


def _two_pass_residuals(sp, p):
    """The order residual vector from two kernel passes: the trees of order
    at most p, then the stage weights on ``bushy_trees(q)``, whose tree j-1
    is b_j and tree q+j-1 is [b_j]."""
    trees = rooted_trees(p)
    residuals = elementary_weights(sp, trees)[0] - 1.0 / trees.gamma
    q = (p - 1) // 2
    stage = elementary_weights(sp, bushy_trees(q))[1]
    j = np.arange(1, q + 1)
    scale = np.array([math.factorial(i - 1) for i in j], dtype=float)
    rows = ((stage[..., q:] - stage[..., q, None] ** j / j) / scale)[..., 1:]
    return np.concatenate([residuals, np.swapaxes(rows, -1, -2).reshape(len(residuals), -1)],
                          axis=-1)


class TestConvergenceOrder:
    def test_exact_quadratic(self):
        dts = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        errors = [(dt, 3.7 * dt**2) for dt in dts]
        assert convergence_order(errors) == pytest.approx(2.0, abs=1e-12)

    def test_cubic_with_noise(self):
        rng = np.random.default_rng(7)
        dts = np.array([0.1, 0.08, 0.05, 0.03, 0.02, 0.0125])
        errors = [(dt, 2.0 * dt**3 * (1.0 + 0.01 * rng.standard_normal())) for dt in dts]
        assert convergence_order(errors) == pytest.approx(3.0, abs=0.1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1e-3)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1.0), (0.05, 0.0), (0.025, 1.0), (0.0125, 1.0)])

    def test_nondecreasing_dt_rejected(self):
        with pytest.raises(ValueError):
            convergence_order([(0.1, 1.0), (0.1, 0.5), (0.05, 0.2), (0.025, 0.1)])


def test_stage_order_necessity_for_ssp_methods():
    # SSP methods of oracle order p need stage order >= floor((p-1)/2)
    for m in [ssprk33(), gen_second_order(2, 2), gen_second_order(6, 4)]:
        p = oracle_order(m, pmax=4)
        assert stage_order(m) >= (p - 1) // 2
