"""Tests for the benchmark's independent reference computations.

Run from the root of a source checkout:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checkers  # noqa: E402
from sspmsrk.methods import MSRKMethod, canonical, forward_euler, ssprk33, to_spijker  # noqa: E402
from sspmsrk.theory import gen_second_order, r_sk2  # noqa: E402


def _random_method(rng, s, k):
    D = np.zeros((s, k))
    D[0, -1] = 1.0
    raw = rng.uniform(0.1, 1.0, size=(s - 1, k))
    D[1:] = raw / raw.sum(axis=1, keepdims=True)
    Ahat = np.zeros((s, k - 1))
    Ahat[1:] = rng.uniform(0.0, 0.5, size=(s - 1, k - 1))
    A = np.tril(rng.uniform(0.0, 0.5, size=(s, s)), -1)
    theta = rng.uniform(0.1, 1.0, size=k)
    return MSRKMethod(s=s, k=k, D=D, Ahat=Ahat, A=A, theta=theta / theta.sum(),
                      bhat=rng.uniform(0.0, 0.5, size=k - 1), b=rng.uniform(0.0, 0.5, size=s))


@pytest.mark.parametrize("s", range(2, 9))
@pytest.mark.parametrize("k", range(2, 6))
def test_bisection_reproduces_r_sk2_on_so2_grid(s, k):
    assert checkers.ssp_bisect(gen_second_order(s, k)) == pytest.approx(r_sk2(s, k), abs=1e-9)


def test_closed_form_matches_library():
    for s in range(1, 9):
        for k in range(2, 6):
            assert checkers.r_sk2(s, k) == pytest.approx(r_sk2(s, k), rel=1e-15)


@pytest.mark.parametrize("method, C", [(ssprk33(), 1.0), (forward_euler(), 1.0)])
def test_bisection_on_runge_kutta_anchors(method, C):
    assert checkers.ssp_bisect(method) == pytest.approx(C, abs=1e-9)


@pytest.mark.parametrize("s, k", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_spijker_and_canonical_agree_with_library(s, k):
    rng = np.random.default_rng(100 * s + k)
    method = _random_method(rng, s, k) if s > 1 else forward_euler()
    S, T = checkers.spijker_matrices(method)
    sp = to_spijker(method)
    np.testing.assert_array_equal(S, sp.S)
    np.testing.assert_array_equal(T, sp.T)
    for r in (0.0, 0.3, 1.7):
        cf = canonical(sp, r)
        assert checkers.canonical_min(S, T, r) == pytest.approx(
            min(cf.P.min(), cf.R.min()), abs=1e-13)


def test_bisection_rejects_negative_S():
    method = gen_second_order(3, 2)
    D = method.D.copy()
    D[1] = [-0.5, 1.5]
    bad = MSRKMethod(s=3, k=2, D=D, Ahat=method.Ahat, A=method.A, theta=method.theta,
                     bhat=method.bhat, b=method.b)
    assert checkers.ssp_bisect(bad) == 0.0


def test_bl_flux_slope_is_the_flux_derivative():
    a = 1.0 / 3.0
    u = np.linspace(0.01, 0.99, 50)
    h = 1e-6
    flux = lambda v: v**2 / (v**2 + a * (1.0 - v) ** 2)  # noqa: E731
    numeric = (flux(u + h) - flux(u - h)) / (2 * h)
    np.testing.assert_allclose(checkers.bl_flux_slope(u, a), numeric, rtol=1e-7)


def test_bl_tvd_factor_matches_finite_difference_estimate():
    """Agrees with the acceptance suite's estimate on a 400001-point grid."""
    a = 1.0 / 3.0
    u = np.linspace(0.0, 1.0, 400001)
    f = u**2 / (u**2 + a * (1.0 - u) ** 2)
    grid_estimate = 2.0 / float(np.max(np.gradient(f, u)))
    factor = checkers.bl_tvd_factor(a)
    assert factor == pytest.approx(grid_estimate, abs=1e-9)
    assert factor <= grid_estimate + 1e-15  # the true maximum is at least the grid's
    assert 0.9 < factor < 1.0


def test_loglog_slope_recovers_power_law():
    dts = [0.4, 0.2, 0.1, 0.05]
    assert checkers.loglog_slope([(dt, 3.0 * dt**2.5) for dt in dts]) == pytest.approx(2.5)
