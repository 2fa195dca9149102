import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from conftest import (
    BENCH_METHODS, _benchmark_search_234, method_library, random_valid_method, same_bits,
    stack_forms,
)
from sspmsrk import methods, optimizer
from sspmsrk.methods import (
    BISECT_TOL, MethodStructureError, MSRKMethod, canonical, forward_euler, ssp_coefficient,
    ssprk33, to_spijker, validate,
)
from sspmsrk.optimizer import (
    MAX_INNER_ITERS,
    SearchFailure,
    _merit_jacobian,
    _merit_residuals,
    _scatter,
    SearchSpec,
    constraint_residuals,
    embed,
    free_parameter_count,
    maximize_ssp,
    pack,
    unpack,
    warm_start_ladder,
    write_search_log,
)
from sspmsrk.msrkio import read_method
from sspmsrk.orderlab import MAX_ORACLE_ORDER, oracle_order, order_residual_vector
from sspmsrk.theory import (
    LINEAR_BOUND_TOL, gen_second_order, linear_bound, r_sk2, stability_polynomials,
    threshold_factor,
)


class TestPackUnpack:
    @pytest.mark.parametrize("method", [
        forward_euler(), ssprk33(), gen_second_order(2, 2), gen_second_order(3, 4),
    ])
    def test_round_trip(self, method):
        x = pack(method)
        assert len(x) == free_parameter_count(method.s, method.k)
        m2 = unpack(x, method.s, method.k)
        np.testing.assert_allclose(m2.D, method.D, atol=1e-15)
        np.testing.assert_allclose(m2.Ahat, method.Ahat, atol=1e-15)
        np.testing.assert_allclose(m2.A, method.A, atol=1e-15)
        np.testing.assert_allclose(m2.theta, method.theta, atol=1e-15)
        np.testing.assert_allclose(m2.bhat, method.bhat, atol=1e-15)
        np.testing.assert_allclose(m2.b, method.b, atol=1e-15)

    def test_unpack_always_normalizes(self, rng):
        x = rng.standard_normal(free_parameter_count(3, 3))
        m = unpack(x, 3, 3)
        np.testing.assert_allclose(m.D.sum(axis=1), 1.0, atol=1e-14)
        assert m.theta.sum() == pytest.approx(1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unpack(np.zeros(3), 2, 2)
        with pytest.raises(ValueError):  # one point only, not a stack
            unpack(np.zeros((2, free_parameter_count(2, 2))), 2, 2)

    def test_count_matches_closed_form(self):
        for s in range(1, 9):
            for k in range(1, 6):
                expected = 2 * (s - 1) * (k - 1) + s * (s - 1) // 2 + 2 * (k - 1) + s
                assert free_parameter_count(s, k) == expected, (s, k)

    def test_pack_reads_the_free_entries_array_by_array(self, rng):
        for s in range(1, 6):
            for k in range(1, 5):
                method = random_valid_method(rng, s, k)
                expected = np.concatenate([getattr(method, key)[mask]
                                           for key, mask in _free_masks(s, k).items()])
                assert same_bits(pack(method), expected), (s, k)

    def test_random_start_draws_array_by_array(self, monkeypatch):
        drawn = []

        def failing(spec, r, starts, history):  # records the r = 0 starts and finds none
            drawn.extend(starts)
            return None, np.inf

        monkeypatch.setattr(optimizer, "_solve_feasibility", failing)
        for s in range(1, 6):
            for k in range(1, 5):
                drawn.clear()
                with pytest.raises(SearchFailure, match="at r=0"):
                    maximize_ssp(SearchSpec(s=s, k=k, p=1, starts=2, seed=s + k))
                reference = np.random.default_rng(np.random.SeedSequence([s + k, s, k, 1]))
                for x in drawn:
                    expected = np.concatenate([
                        reference.uniform(0.0, 1.0 if key in ("D", "theta") else 2.0 / s,
                                          np.count_nonzero(mask))
                        for key, mask in _free_masks(s, k).items()
                    ])
                    assert same_bits(x, expected), (s, k)
                assert len(drawn) == 2

    def test_pack_of_an_invalid_method_raises(self):
        method = ssprk33()
        with pytest.raises(MethodStructureError, match="theta sums to"):  # building it raises
            pack(MSRKMethod(s=3, k=1, D=method.D, Ahat=method.Ahat, A=method.A, theta=[0.5],
                            bhat=[], b=method.b))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_unpack_of_a_non_finite_x_raises(self, value):
        x = np.full(free_parameter_count(2, 2), 0.25)
        x[3] = value
        with pytest.raises(MethodStructureError, match="^coefficients must be finite"):
            unpack(x, 2, 2)


def _free_masks(s, k):
    """The entries the search moves, one boolean mask per coefficient array:
    all of them but the first rows of D and Ahat, D's last column, theta's
    last entry and A's upper triangle with its diagonal."""
    masks = {"D": np.ones((s, k), bool), "Ahat": np.ones((s, k - 1), bool),
             "A": np.tri(s, k=-1, dtype=bool), "theta": np.ones(k, bool),
             "bhat": np.ones(k - 1, bool), "b": np.ones(s, bool)}
    masks["D"][0] = masks["D"][:, -1] = masks["Ahat"][0] = masks["theta"][-1] = False
    return masks


class TestConstraintResiduals:
    def test_ssprk33_feasible_at_its_coefficient(self):
        eq, ineq = constraint_residuals(to_spijker(ssprk33()), 1.0, 3)
        assert np.abs(eq).max() < 1e-12
        assert ineq.max() < 1e-9

    def test_violation_past_the_coefficient(self):
        _, ineq = constraint_residuals(to_spijker(ssprk33()), 1.5, 3)
        assert ineq.max() > 1e-3

    def test_validates_each_iterate_once(self, rng, monkeypatch):
        calls = []
        original = methods.validate

        def counting(method):
            calls.append(method)
            return original(method)

        monkeypatch.setattr(methods, "validate", counting)
        m = unpack(rng.uniform(0.0, 0.5, free_parameter_count(2, 2)), 2, 2)
        constraint_residuals(to_spijker(m), 0.5, 3)
        assert len(calls) == 1

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="^r must be nonnegative, got -1.0$"):
            constraint_residuals(to_spijker(forward_euler()), -1.0, 1)

    def test_nan_r_rejected(self):
        # a nan r gave violations of nan
        with pytest.raises(ValueError, match="^r must be nonnegative, got nan$"):
            constraint_residuals(to_spijker(forward_euler()), np.nan, 1)

    def test_search_evaluates_every_residual_through_it(self, monkeypatch):
        # each residual and each Jacobian stack of an inner solve is one call
        calls = []
        original = optimizer.constraint_residuals

        def counting(sp, r, p):
            calls.append(r)
            return original(sp, r, p)

        monkeypatch.setattr(optimizer, "constraint_residuals", counting)
        res = maximize_ssp(SearchSpec(s=2, k=2, p=3, starts=1, seed=0, r_tol=1e-3))
        assert len(calls) == sum(nfev + njev for *_, nfev, njev in res.history) > 0


class TestStackedMerit:
    @pytest.mark.parametrize("s, k, p", [(2, 2, 3), (2, 3, 4), (3, 2, 3)])
    def test_rows_match_points_one_at_a_time(self, rng, s, k, p):
        X = rng.uniform(-0.5, 1.0, size=(6, free_parameter_count(s, k)))
        F = _merit_residuals(X, s, k, 0.4, p)
        for x, row in zip(X, F):
            np.testing.assert_allclose(row, _merit_residuals(x, s, k, 0.4, p),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("s, k, p", [(2, 2, 3), (2, 3, 4)])
    def test_jacobian_matches_columns_one_at_a_time(self, rng, s, k, p):
        x = rng.uniform(-0.5, 1.0, free_parameter_count(s, k))
        x[0], x[1] = 0.0, -3.0  # sign(0) counts as +1; |x| > 1 scales the step
        f0 = _merit_residuals(x, s, k, 0.4, p)
        rel = np.sqrt(np.finfo(float).eps)
        columns = []
        for j in range(len(x)):
            xj = x.copy()
            xj[j] += rel * (1.0 if x[j] >= 0 else -1.0) * max(1.0, abs(x[j]))
            columns.append((_merit_residuals(xj, s, k, 0.4, p) - f0) / (xj[j] - x[j]))
        expected = np.array(columns).T
        J = _merit_jacobian(x, s, k, 0.4, p)
        assert np.abs(J - expected).max() <= 1e-6 * np.abs(expected).max()

    @pytest.mark.parametrize("s, k", [(2, 2), (3, 2)])
    def test_jacobian_takes_each_hinge_on_the_side_of_x(self, s, k):
        # a packed SO2 method at r = C: its zero coefficients, and the P entries
        # that vanish at C, sit exactly on their hinges' kinks
        method = gen_second_order(s, k)
        x, r = pack(method), ssp_coefficient(to_spijker(method))
        h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        X = np.vstack([x, x + np.diag(h)])
        eq, ineq = constraint_residuals(_scatter(X, s, k), r, 2)
        F = np.concatenate([eq, ineq], axis=-1)
        raw = (F[1:] - F[0]).T / ((x + h) - x)
        inactive = np.concatenate([np.zeros(eq.shape[-1], dtype=bool), ineq[0] <= 0.0])
        J = _merit_jacobian(x, s, k, r, 2)
        assert (J[inactive] == 0.0).all()
        assert same_bits(J[~inactive], raw[~inactive])
        # differences of the hinged rows straddle some of those kinks
        assert (ineq[0] == 0.0).any()
        hinged = _merit_residuals(X, s, k, r, 2)
        assert ((hinged[1:] - hinged[0]).T[inactive] != 0.0).any()

    def test_at_least_as_many_residuals_as_free_coordinates(self, rng):
        # Levenberg-Marquardt needs m >= n (the solve's pad adds one to each);
        # the coefficient-bound rows alone cover every free coordinate, so
        # this holds at any (s, k, p)
        for s in range(1, 9):
            for k in range(1, 6):
                x = rng.uniform(0.0, 0.5, free_parameter_count(s, k))
                for p in range(1, MAX_ORACLE_ORDER + 1):
                    assert _merit_residuals(x, s, k, 0.4, p).size >= x.size, (s, k, p)

    def test_pad_is_not_read_and_is_bordered_off(self, rng, monkeypatch):
        # the residual and Jacobian that MINPACK gets, asked at a point whose pad is 7
        x = rng.uniform(0.0, 0.5, free_parameter_count(3, 2))
        z = np.append(x, 7.0)
        seen = []

        def leastsq(func, z0, Dfun, **kwargs):
            seen.extend([func(z), Dfun(z)])
            return z0, None, {"fvec": func(z0)}, "", 1

        monkeypatch.setattr(scipy.optimize, "leastsq", leastsq)
        sol = optimizer.least_squares(lambda x: _merit_residuals(x, 3, 2, 0.4, 3), x,
                                      jac=lambda x: _merit_jacobian(x, 3, 2, 0.4, 3))
        assert same_bits(sol.x, x)  # the pad leaves with the solve
        F, J = seen
        assert same_bits(F, np.append(_merit_residuals(x, 3, 2, 0.4, 3), 0.0))
        assert same_bits(J[:-1, :-1], _merit_jacobian(x, 3, 2, 0.4, 3))
        assert not J[-1, :-1].any() and not J[:-1, -1].any()
        assert J[-1, -1] == optimizer._PAD_NORM

    def test_non_finite_member_raises(self, rng):
        X = rng.uniform(0.0, 0.5, size=(4, free_parameter_count(2, 2)))
        X[2, 3] = np.nan
        with pytest.raises(MethodStructureError, match="coefficients must be finite"):
            _merit_residuals(X, 2, 2, 0.4, 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_third_order_search_across_seeds(self, seed):
        spec = SearchSpec(s=2, k=2, p=3, starts=20, seed=seed, r_tol=1e-3,
                          warm_starts=warm_start_ladder(2, 2, 3))
        res = maximize_ssp(spec)
        assert res.certified
        assert res.Ceff >= 0.36603 - 1e-3


@st.composite
def _stacks(draw):
    """(s, k, X): a stack of 1-3 points with coordinates from -64 to 64,
    subnormals and zeros of both signs included."""
    s, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = free_parameter_count(s, k)
    rows = draw(st.lists(st.lists(st.floats(-64.0, 64.0), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    return s, k, np.array(rows)


def _unpack_as_first_written(x, s, k):
    """unpack with zero arrays per coefficient, the free entries of x put
    in place, and D's rows and theta completed to sum 1 by their last entry."""
    arrays, pos = {}, 0
    for key, mask in _free_masks(s, k).items():
        size = np.count_nonzero(mask)
        arrays[key] = np.zeros(mask.shape)
        arrays[key][mask] = x[pos : pos + size]
        pos += size
    for key in ("D", "theta"):
        arrays[key][..., -1] = 1.0 - arrays[key][..., :-1].sum(axis=-1)
    return MSRKMethod(s=s, k=k, **arrays)


def _residuals_as_first_written(methods, r, p):
    """constraint_residuals on the stack of the methods' Spijker forms, one
    row per method, with the coefficient bounds read from its arrays."""
    sp = stack_forms(methods)
    eq = order_residual_vector(sp, p)
    cf = canonical(sp, r)
    ineq = np.array([np.concatenate([a.ravel() for a in (
        -P, -R, -m.D, m.D - 1.0, -m.theta, m.theta - 1.0, -m.A, -m.Ahat, -m.b, -m.bhat,
    )]) for P, R, m in zip(cf.P, cf.R, methods)])
    return eq, ineq


class TestMeritPlan:
    """The merit scatters a stack of points straight into a stack of Spijker
    forms; row i has the bits of unpack, to_spijker and constraint_residuals
    as first written at point i, evaluated in a stack of the same size."""

    @settings(max_examples=150, deadline=None)
    @given(_stacks())
    def test_form_is_to_spijker_of_unpack(self, stack):
        s, k, X = stack
        sp = _scatter(X, s, k)
        for i, x in enumerate(X):
            method, reference = unpack(x, s, k), _unpack_as_first_written(x, s, k)
            for key in ("D", "Ahat", "A", "theta", "bhat", "b"):
                assert same_bits(getattr(method, key), getattr(reference, key)), key
            expected = to_spijker(method)
            assert same_bits(sp.S[i], expected.S)
            assert same_bits(sp.T[i], expected.T)
        # a form is one matrix [S | T], and S and T are views of it
        for form in (sp, expected):
            assert same_bits(form.ST, np.concatenate([form.S, form.T], axis=-1))
            assert np.shares_memory(form.S, form.ST) and np.shares_memory(form.T, form.ST)

    @settings(max_examples=150, deadline=None)
    @given(_stacks(), st.integers(1, 7), st.floats(0.0, 8.0))
    def test_rows_are_hinged_constraint_residuals(self, stack, p, r):
        s, k, X = stack
        references = [_unpack_as_first_written(x, s, k) for x in X]
        eq, ineq = _residuals_as_first_written(references, r, p)
        expected = np.concatenate([eq, np.maximum(0.0, ineq)], axis=-1)
        assert same_bits(_merit_residuals(X, s, k, r, p), expected)
        for x, reference in zip(X, references):
            eq, ineq = constraint_residuals(to_spijker(unpack(x, s, k)), r, p)
            ref_eq, ref_ineq = _residuals_as_first_written([reference], r, p)
            assert same_bits(eq, ref_eq[0]) and same_bits(ineq, ref_ineq[0])

    def test_merit_and_jacobian_never_validate(self, rng, monkeypatch):
        calls = []

        def counting(method):
            calls.append(method)
            return validate(method)

        monkeypatch.setattr(methods, "validate", counting)
        x = rng.uniform(0.0, 0.5, free_parameter_count(3, 3))
        _merit_residuals(np.vstack([x, 2.0 * x]), 3, 3, 0.4, 5)
        _merit_jacobian(x, 3, 3, 0.4, 5)
        assert calls == []
        res = maximize_ssp(SearchSpec(s=2, k=2, p=3, starts=20, seed=1, r_tol=1e-3,
                                      warm_starts=warm_start_ladder(2, 2, 3)))
        assert any(m is res.method for m in calls)


def _threshold_factor(method):
    return threshold_factor(stability_polynomials(to_spijker(method)))


def _free(D, Ahat, A, theta, bhat, b):
    """pack's vector written out: D[1:, :-1], Ahat[1:], the strictly lower A,
    theta[:-1], bhat and b."""
    return np.concatenate([D[1:, :-1].ravel(), Ahat[1:].ravel(), A[np.tril_indices(len(A), -1)],
                           theta[:-1], bhat, b])


def _one_more_step(m):
    """pack of m with a zero oldest step, padded by hand."""
    return _free(np.pad(m.D, ((0, 0), (1, 0))), np.pad(m.Ahat, ((0, 0), (1, 0))), m.A,
                 np.pad(m.theta, (1, 0)), np.pad(m.bhat, (1, 0)), m.b)


def _one_more_stage(m):
    """pack of m with a last stage u^n of zero weight, padded by hand."""
    D = np.vstack([m.D, np.eye(m.k)[-1]])
    return _free(D, np.pad(m.Ahat, ((0, 1), (0, 0))), np.pad(m.A, ((0, 1), (0, 1))), m.theta,
                 m.bhat, np.pad(m.b, (0, 1)))


class TestPadding:
    """embed zero-pads an (s0, k0) method into a larger (s, k) shape."""

    @pytest.mark.parametrize("ds, dk", [(1, 0), (0, 1), (2, 2), (3, 1)])
    def test_embedding_keeps_order_threshold_factor_and_ssp_coefficient(self, ds, dk):
        for m in method_library():
            e = embed(m, m.s + ds, m.k + dk)
            assert validate(e).ok, m.name
            pmax = m.claimed_order + 1
            assert oracle_order(e, pmax=pmax) == oracle_order(m, pmax=pmax), m.name
            assert _threshold_factor(e) == _threshold_factor(m), m.name
            # C is bisected; the worst case, OPT(3,2,3) in (6,3), moves by 1.31e-10
            assert ssp_coefficient(to_spijker(e)) == pytest.approx(
                ssp_coefficient(to_spijker(m)), rel=0.0, abs=2 * BISECT_TOL), m.name

    def test_embedding_in_its_own_shape_keeps_the_arrays(self):
        for m in method_library():
            e = embed(m, m.s, m.k)
            assert all(same_bits(getattr(e, key), getattr(m, key))
                       for key in ("D", "Ahat", "A", "theta", "bhat", "b")), m.name

    @pytest.mark.parametrize("s, k", [(2, 3), (3, 2), (2, 4)])
    def test_smaller_shape_rejected(self, s, k):
        message = rf"cannot embed an \(s=3, k=3\) method in \(s={s}, k={k}\)"
        with pytest.raises(ValueError, match=message):
            embed(gen_second_order(3, 3), s, k)

    def test_ladder_includes_closed_form(self):
        warm = warm_start_ladder(3, 2, 2)
        assert any(m.name.startswith("SO2") for m in warm)

    def test_ladder_uses_found_methods(self):
        base = gen_second_order(2, 2)
        warm = warm_start_ladder(2, 3, 2, {(2, 2, 2): base})
        assert [(m.s, m.k) for m in warm] == [(2, 3), (2, 3)]
        assert same_bits(warm[0].D[:, 1:], base.D) and same_bits(warm[0].theta[1:], base.theta)

    @pytest.mark.parametrize("s, k, p, below, left", [
        # the acceptance suite's (3,2,3), seeded from its (2,2,3); (3,1,3) is SSPRK(3,3)
        (3, 2, 3, ssprk33(), read_method(BENCH_METHODS / "opt_2_2_3.msrk")),
        (3, 3, 2, gen_second_order(3, 2), gen_second_order(2, 3)),
        # an order-4 method is an order-3 one
        (3, 3, 3, read_method(BENCH_METHODS / "opt_3_2_3.msrk"),
         read_method(BENCH_METHODS / "opt_2_3_4.msrk")),
    ], ids=["3-2-3", "3-3-2", "3-3-3"])
    def test_ladder_starts_are_pinned(self, s, k, p, below, left):
        # the (s, k-1) neighbour, the (s-1, k) neighbour and SO2(s, k), in this
        # order: the first start a solve accepts ends that radius's multistart
        warm = warm_start_ladder(s, k, p, {(s, k - 1, p): below, (s - 1, k, p): left})
        expected = [_one_more_step(below), _one_more_stage(left), pack(gen_second_order(s, k))]
        assert len(warm) == 3
        assert all(same_bits(pack(m), x) for m, x in zip(warm, expected))


def _unreachable(*args, **kwargs):
    pytest.fail("an invalid argument reached an inner solve")


def _heun():
    """Heun's method, of order 2 and C = 1."""
    return MSRKMethod(s=2, k=1, D=[[1.0], [1.0]], Ahat=np.zeros((2, 0)),
                      A=[[0.0, 0.0], [1.0, 0.0]], theta=[1.0], bhat=[], b=[0.5, 0.5])


class TestMaximizeSSP:
    def test_first_order_two_stages(self):
        # (s=2, p=1) should reach C close to s = 2
        spec = SearchSpec(s=2, k=1, p=1, starts=6, seed=4, r_tol=1e-3)
        res = maximize_ssp(spec)
        assert res.certified
        assert res.C == pytest.approx(2.0, abs=0.05)

    def test_second_order_matches_closed_form(self):
        spec = SearchSpec(s=2, k=2, p=2, starts=8, seed=11, r_tol=1e-3,
                          warm_starts=warm_start_ladder(2, 2, 2))
        res = maximize_ssp(spec)
        assert res.certified
        assert res.C == pytest.approx(r_sk2(2, 2), abs=5e-3)
        assert res.R == pytest.approx(r_sk2(2, 2), abs=1e-6)
        assert validate(res.method).ok

    def test_impossible_order_raises(self):
        # one stage, one step cannot exceed order one
        spec = SearchSpec(s=1, k=1, p=2, starts=4, seed=0, r_tol=1e-2)
        with pytest.raises(SearchFailure):
            maximize_ssp(spec)

    def test_no_positive_linear_bound_fails_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_solve_feasibility",
                            lambda *args: pytest.fail("an inner solve ran"))
        with pytest.raises(SearchFailure, match=r"linear bound R\(2,2,4\)"):
            maximize_ssp(SearchSpec(s=2, k=2, p=4, starts=20, seed=123, r_tol=1e-4))

    def test_no_radius_above_zero_fails_the_search(self, monkeypatch):
        # every solve at r > 0 fails, so the bisection ends at lo = 0
        x = pack(gen_second_order(2, 2))
        monkeypatch.setattr(optimizer, "_solve_feasibility",
                            lambda spec, r, starts, history: (x, 0.0) if r == 0.0 else (None, 1.0))
        with pytest.raises(SearchFailure, match=r"radius for \(s=2, k=2, p=2\) is 0\.000e\+00;"):
            maximize_ssp(SearchSpec(s=2, k=2, p=2, starts=1, r_tol=1e-3))

    def test_bisection_stays_under_the_linear_bound(self, monkeypatch):
        x = pack(gen_second_order(2, 2))
        radii = []

        def solve(spec, r, starts, history):
            radii.append(r)
            return x, 0.0

        monkeypatch.setattr(optimizer, "_solve_feasibility", solve)
        maximize_ssp(SearchSpec(s=2, k=2, p=3, starts=1, r_tol=1e-3))
        R = linear_bound(2, 2, 3)
        assert max(radii) <= R + LINEAR_BOUND_TOL
        assert max(radii) >= R - 1e-3

    def test_tiny_r_tol_ends_on_neighbouring_floats(self, monkeypatch):
        # near r = 0.3 the bracket stops shrinking at about 5e-17, far above r_tol
        x = pack(gen_second_order(2, 2))
        radii = []

        def solve(spec, r, starts, history):
            radii.append(r)
            if len(radii) > 200:
                pytest.fail("the bisection did not end")
            return (x, 0.0) if r <= 0.3 else (None, 1.0)

        monkeypatch.setattr(optimizer, "_solve_feasibility", solve)
        maximize_ssp(SearchSpec(s=2, k=2, p=2, starts=1, r_tol=1e-300))
        assert max(r for r in radii if r <= 0.3) == 0.3
        assert len(radii) < 70

    @pytest.mark.parametrize("r_tol", ["bracket", 1e300])
    def test_r_tol_not_below_the_bracket_rejected_before_a_solve(self, monkeypatch, r_tol):
        # the bisection would make no probe and report the feasible (2,2,3) infeasible
        monkeypatch.setattr(optimizer, "least_squares", _unreachable)
        hi = linear_bound(2, 2, 3) + LINEAR_BOUND_TOL
        spec = SearchSpec(s=2, k=2, p=3, starts=1, r_tol=hi if r_tol == "bracket" else r_tol)
        with pytest.raises(ValueError, match=r"r_tol must be below the bracket R\(2,2,3\) "
                                             r"\+ 1e-06 = 0\.732052$"):
            maximize_ssp(spec)

    def test_r_tol_just_below_the_bracket_probes_its_midpoint(self, monkeypatch):
        x = pack(gen_second_order(2, 2))
        radii = []

        def solve(spec, r, starts, history):
            radii.append(r)
            return x, 0.0

        monkeypatch.setattr(optimizer, "_solve_feasibility", solve)
        hi = linear_bound(2, 2, 3) + LINEAR_BOUND_TOL
        maximize_ssp(SearchSpec(s=2, k=2, p=3, starts=1, r_tol=np.nextafter(hi, 0.0)))
        assert radii == [0.0, 0.5 * hi]

    def test_radius_accepted_only_when_the_method_reaches_it(self, monkeypatch):
        # every solve claims feasibility with the same order-2 method, whose C = 1
        # is below R(2,2,2) = sqrt(2): no radius past 1 + 1e-6 may be accepted
        x = pack(embed(_heun(), 2, 2))
        assert ssp_coefficient(to_spijker(unpack(x, 2, 2))) == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(optimizer, "least_squares", lambda *args, **kwargs: SimpleNamespace(
            x=x, cost=0.0, nfev=1, njev=1, status=1))
        res = maximize_ssp(SearchSpec(s=2, k=2, p=2, starts=1, r_tol=1e-4))
        assert res.certified
        assert res.C == pytest.approx(1.0, abs=1e-9)

    def test_a_start_short_of_the_radius_does_not_end_the_multistart(self, monkeypatch):
        # both solves end with merit 0; only the second method (C = sqrt(2)) reaches r = 1.2
        short, good = pack(embed(_heun(), 2, 2)), pack(gen_second_order(2, 2))
        solutions = iter([short, good])
        monkeypatch.setattr(optimizer, "least_squares", lambda *args, **kwargs: SimpleNamespace(
            x=next(solutions), cost=0.0, nfev=1, njev=1, status=1))
        history = []
        x, _ = optimizer._solve_feasibility(SearchSpec(s=2, k=2, p=2), 1.2, [short, good],
                                            history)
        assert np.array_equal(x, good)
        assert len(history) == 2

    def test_certified_when_the_method_beats_the_bracket(self, monkeypatch):
        # a probe that fails the reach check can end the bracket below the
        # accepted method's C, which does not make the method uncertified
        x = pack(gen_second_order(2, 2))
        monkeypatch.setattr(optimizer, "_solve_feasibility", lambda *args: (x, 0.0))
        bisect = optimizer._bisect

        def low(passes, lo, hi, tol):
            lo, hi = bisect(passes, lo, hi, tol)
            return lo - 0.1, hi

        monkeypatch.setattr(optimizer, "_bisect", low)
        res = maximize_ssp(SearchSpec(s=2, k=2, p=2, starts=1, r_tol=1e-4))
        assert res.C == pytest.approx(r_sk2(2, 2), abs=1e-9)
        assert res.certified

    def test_history_counts_are_integers_within_the_budget(self, monkeypatch):
        solves = []  # per inner solve: the residuals computed and the solve's result
        driver = optimizer.least_squares

        def recording(fun, x0, **kwargs):
            computed = [0]

            def counted(x):
                computed[0] += 1
                return fun(x)

            solves.append((computed, driver(counted, x0, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(optimizer, "least_squares", recording)
        spec = SearchSpec(s=2, k=2, p=3, starts=4, seed=1, r_tol=1e-3,
                          warm_starts=warm_start_ladder(2, 2, 3))
        res = maximize_ssp(spec)
        assert res.history and len(solves) == len(res.history)
        for (_, _, _, nfev, njev), ([computed], sol) in zip(res.history, solves):
            # every row counts the residuals and Jacobians computed
            assert isinstance(nfev, int) and 0 < nfev == computed <= MAX_INNER_ITERS
            assert isinstance(njev, int) and 0 < njev <= nfev
            assert (nfev, njev) == (sol.nfev, sol.njev)

    def test_history_is_logged(self, tmp_path):
        spec = SearchSpec(s=2, k=1, p=1, starts=4, seed=4, r_tol=1e-2)
        res = maximize_ssp(spec)
        assert len(res.history) > 0
        log = tmp_path / "search.csv"
        write_search_log(res.history, log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "start,r,merit,iterations"
        assert len(lines) == len(res.history) + 1


def _acceptance_search_223():
    """The acceptance suite's (2,2,3) search."""
    return SearchSpec(s=2, k=2, p=3, starts=20, seed=123, r_tol=1e-4,
                      warm_starts=warm_start_ladder(2, 2, 3))


def _paper_search(s, k, p, seed=123):
    """A search at the settings of the paper-scale table: 10 starts, seed 123
    unless given, r_tol 1e-3 and the warm-start ladder."""
    return SearchSpec(s=s, k=k, p=p, starts=10, seed=seed, r_tol=1e-3,
                      warm_starts=warm_start_ladder(s, k, p))


def _paper_search_335():
    return _paper_search(3, 3, 5)


def test_paper_scale_535_search_is_certified_near_its_linear_bound():
    # forward differences across the hinges' kinks stopped this search at C_eff 0.21763
    res = maximize_ssp(_paper_search(5, 3, 5))
    assert res.certified and res.Ceff >= 0.38
    assert oracle_order(res.method, pmax=6) >= 5


@pytest.mark.parametrize("seed", [123, 7])
def test_paper_scale_435_search_runs_its_accepted_solve_to_the_end(seed):
    # the solve accepted at r = 1.36543 first creeps on a plateau for more than 130
    # residual evaluations; stopping solves on plateaus that long ended both at 0.34115
    res = maximize_ssp(_paper_search(4, 3, 5, seed))
    assert res.certified and f"{res.Ceff:.5f}" == "0.34157"


def _criterion_4_chain(seed, targets=((2, 2, 3), (3, 2, 3), (2, 3, 4))):
    """Criterion 4's searches at a seed, each warm-started from those before it."""
    found, results = {}, []
    for s, k, p in targets:
        res = maximize_ssp(SearchSpec(s=s, k=k, p=p, starts=20, seed=seed, r_tol=1e-4,
                                      warm_starts=warm_start_ladder(s, k, p, found)))
        found[(s, k, p)] = res.method
        results.append(res)
    return results


@pytest.mark.parametrize("seed", range(1, 13))
def test_criterion_4_chain_across_seeds(seed):
    # criterion 4 itself searches at seed 123
    results = _criterion_4_chain(seed)
    assert [f"{res.Ceff:.5f}" for res in results] == ["0.36598", "0.55018", "0.24808"]
    assert all(res.certified for res in results)


#: a relative tolerance that no two merits meet, which turns the repeat rule off
_REPEAT_OFF = -1.0


def _stub_solves(monkeypatch, ends):
    """Stubs the inner solve: the i-th solve stays at its start and ends with
    (merit, status) ends[i]; returns the list of the starts solved."""
    solved, ends = [], iter(ends)

    def solve(fun, x0, **kwargs):
        merit, status = next(ends)
        solved.append(x0)
        return SimpleNamespace(x=x0, cost=0.5 * merit, nfev=1, njev=1, status=status)

    monkeypatch.setattr(optimizer, "least_squares", solve)
    return solved


def _one_start_at_a_time(solve):
    """solve, a _solve_feasibility, with both rules off: it gets the starts one
    at a time, in order, until one is accepted, so no start is compared with another."""

    def every_start(spec, r, starts, history):
        best = np.inf
        for idx, x0 in enumerate(starts):
            rows = []
            x, merit = solve(spec, r, [x0], rows)
            history.extend((r, idx) + row[2:] for row in rows)
            if x is not None:
                return x, merit
            best = min(best, merit)
        return None, best

    return every_start


def _rows_by_radius(history):
    return [(r, list(rows)) for r, rows in itertools.groupby(history, key=lambda row: row[0])]


def _assert_same_method(a, b):
    for key in ("D", "Ahat", "A", "theta", "bhat", "b"):
        assert same_bits(getattr(a.method, key), getattr(b.method, key)), key
    assert same_bits(a.C, b.C) and a.certified == b.certified


class TestRepeatRule:
    """A start with the bits of one already solved at a radius is skipped.  At
    r > 0 a radius is given up once solves from two distinct starts, each ended
    by MINPACK above feas_tol**2, agree in merit to REPEAT_RTOL relative."""

    MERIT = 1e-3

    @pytest.fixture
    def starts(self, rng):
        return list(rng.uniform(0.0, 0.5, (3, free_parameter_count(2, 2))))

    @staticmethod
    def _solve(r, starts):
        history = []
        x, merit = optimizer._solve_feasibility(SearchSpec(s=2, k=2, p=3), r, starts, history)
        return x, merit, [row[1] for row in history]

    @pytest.mark.parametrize("second, solves", [(1.0 + 5e-10, 2), (1.0 + 2e-9, 3)])
    def test_two_matching_minima_end_the_radius(self, monkeypatch, starts, second, solves):
        m = self.MERIT
        solved = _stub_solves(monkeypatch, [(m, 1), (m * second, 2), (m, 3)])
        x, merit, rows = self._solve(0.4, starts)
        assert x is None and merit == m
        assert rows == list(range(solves))
        assert all(a is b for a, b in zip(solved, starts))

    def test_the_rule_is_off_at_r_0(self, monkeypatch, starts):
        _stub_solves(monkeypatch, [(self.MERIT, 1)] * 3)
        assert self._solve(0.0, starts)[2] == [0, 1, 2]

    @pytest.mark.parametrize("status", [0])
    def test_a_stalled_or_spent_solve_never_counts(self, monkeypatch, starts, status):
        m = self.MERIT
        _stub_solves(monkeypatch, [(m, status), (m, 1), (m, status)])
        assert self._solve(0.4, starts)[2] == [0, 1, 2]

    def test_a_merit_within_feas_tol_squared_never_counts(self, monkeypatch, starts):
        # the stubbed solves stay at random starts, short of r = 3
        m = 0.1 * SearchSpec.feas_tol**2
        _stub_solves(monkeypatch, [(m, 1)] * 3)
        x, merit, rows = self._solve(3.0, starts)
        assert x is None and merit == m and rows == [0, 1, 2]

    @pytest.mark.parametrize("r", [0.0, 0.4])
    def test_a_duplicate_start_is_skipped_with_no_history_row(self, monkeypatch, starts, r):
        a, b = starts[:2]
        solved = _stub_solves(monkeypatch, [(self.MERIT, 1), (2.0 * self.MERIT, 1)])
        assert self._solve(r, [a, b, a.copy(), b])[2] == [0, 1]
        assert solved[0] is a and solved[1] is b

    def test_a_radius_given_up_leaves_the_next_its_random_starts(self, monkeypatch):
        solve, driver = optimizer._solve_feasibility, optimizer.least_squares

        def search(inner):
            calls = []  # per radius: r, its starts and the starts solved

            def solving(spec, r, starts, history):
                calls.append((r, starts, []))
                return inner(spec, r, starts, history)

            def recording(fun, x0, **kwargs):
                calls[-1][2].append(x0)
                return driver(fun, x0, **kwargs)

            monkeypatch.setattr(optimizer, "_solve_feasibility", solving)
            monkeypatch.setattr(optimizer, "least_squares", recording)
            return maximize_ssp(_benchmark_search_234()), calls

        ruled, on = search(solve)
        unruled, off = search(_one_start_at_a_time(solve))
        _assert_same_method(ruled, unruled)
        assert len(on) == len(off)
        given_up = []
        for i, ((r, starts, solved), (r_off, starts_off, solved_off)) in enumerate(zip(on, off)):
            assert same_bits(r, r_off)
            assert len(starts) == len(starts_off) and all(map(same_bits, starts, starts_off))
            # the starts solved are the distinct ones solved without the rules, up to
            # the one after which the repeat rule gave the radius up
            distinct = list({x.tobytes(): x for x in solved_off}.values())
            assert 0 < len(solved) <= len(distinct) and all(map(same_bits, solved, distinct))
            if len(solved) < len(distinct):
                given_up.append(i)
        assert given_up and given_up[0] < len(on) - 1

    @pytest.mark.parametrize("search", [
        lambda: maximize_ssp(_benchmark_search_234()),
        lambda: maximize_ssp(_paper_search_335()),
        # the warm-started (3,2,3) tries one point twice at its first radius
        lambda: _criterion_4_chain(123, ((2, 2, 3), (3, 2, 3)))[-1],
    ], ids=["benchmark (2,3,4)", "paper (3,3,5)", "criterion 4 (3,2,3)"])
    def test_rules_off_give_the_same_results(self, monkeypatch, search):
        on = search()
        monkeypatch.setattr(optimizer, "REPEAT_RTOL", _REPEAT_OFF)
        repeat_off = search()
        monkeypatch.setattr(optimizer, "_solve_feasibility",
                            _one_start_at_a_time(optimizer._solve_feasibility))
        both_off = search()
        for off in (repeat_off, both_off):
            _assert_same_method(on, off)
            assert [r for r, _ in _rows_by_radius(on.history)] == [
                r for r, _ in _rows_by_radius(off.history)]
        # at each radius the repeat rule ends the solves early, and the skip drops repeats
        for (_, a), (_, b), (_, c) in zip(*map(_rows_by_radius, (
                on.history, repeat_off.history, both_off.history))):
            assert a == b[:len(a)]
            assert b == [row for row in c if row[1] in {i for _, i, *_ in b}]
        nfev = [sum(row[3] for row in res.history) for res in (on, repeat_off, both_off)]
        assert nfev[0] <= nfev[1] and nfev[0] < nfev[2]


class TestJacobianMemo:
    def test_the_same_point_reuses_the_array(self, rng, monkeypatch):
        calls = []  # the point and array of each Jacobian MINPACK's caller gets
        real = scipy.optimize.leastsq

        def spying(func, z0, Dfun, **kwargs):
            def jacobian(z):
                calls.append((z.copy(), Dfun(z)))
                return calls[-1][1]

            return real(func, z0, Dfun=jacobian, **kwargs)

        monkeypatch.setattr(scipy.optimize, "leastsq", spying)
        monkeypatch.setattr(optimizer, "MAX_INNER_ITERS", 20)
        x = rng.uniform(0.0, 0.5, free_parameter_count(2, 2))
        sol = optimizer.least_squares(lambda x: _merit_residuals(x, 2, 2, 0.4, 3), x,
                                      jac=lambda x: _merit_jacobian(x, 2, 2, 0.4, 3))
        # leastsq checks the Jacobian at x0, and MINPACK then asks for it there
        (z, J), (z_again, J_again) = calls[:2]
        assert np.array_equal(z, z_again) and J_again is J
        assert all(not np.array_equal(a, b) for (a, _), (b, _) in zip(calls[1:], calls[2:]))
        assert sol.njev == len(calls) - 1 == len({id(J) for _, J in calls})

    def test_no_jacobian_repeats_its_point_and_njev_counts_them(self, monkeypatch):
        points = []
        driver = optimizer.least_squares

        def recording(x, *args):
            points[-1].append(x.copy())
            return _merit_jacobian(x, *args)

        def solve(*args, **kwargs):
            points.append([])
            return driver(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_merit_jacobian", recording)
        monkeypatch.setattr(optimizer, "least_squares", solve)
        res = maximize_ssp(SearchSpec(s=2, k=2, p=3, starts=20, seed=123, r_tol=1e-3,
                                      warm_starts=warm_start_ladder(2, 2, 3)))
        assert len(points) == len(res.history)
        for xs in points:
            assert all(not np.array_equal(a, b) for a, b in zip(xs, xs[1:]))
        assert sum(len(xs) for xs in points) == sum(row[4] for row in res.history)


def _scipy_lm(fun, x0, *, jac):
    """The inner solve as scipy's ``least_squares`` runs it: 'lm' with unit scaling,
    tolerances 1e-15 and a budget of ``optimizer.MAX_INNER_ITERS`` residuals."""
    return least_squares(fun, x0, jac=jac, method="lm", x_scale=1.0, xtol=1e-15, ftol=1e-15,
                         gtol=1e-15, max_nfev=optimizer.MAX_INNER_ITERS)


def _scipy_lm_padded(fun, x0, *, jac):
    """:func:`_scipy_lm` on the problem with the driver's pad.  nfev counts the
    residuals computed and njev the Jacobians, each computed once when asked
    again at its point."""
    counts = {"nfev": 0, "njev": 0}
    last = [None, None]  # the last Jacobian's point and array

    def residuals(z):
        counts["nfev"] += 1
        return np.append(fun(z[:-1]), 0.0)

    def jacobian(z):
        if last[0] is None or not np.array_equal(z, last[0]):
            J = jac(z[:-1])
            bordered = np.zeros((J.shape[0] + 1, J.shape[1] + 1))
            bordered[:-1, :-1] = J
            bordered[-1, -1] = optimizer._PAD_NORM
            last[:] = z.copy(), bordered
            counts["njev"] += 1
        return last[1]

    sol = _scipy_lm(residuals, np.append(x0, 0.0), jac=jacobian)
    sol.x, sol.nfev, sol.njev = sol.x[:-1], counts["nfev"], counts["njev"]
    return sol


def _rosenbrock(z):
    return np.array([10.0 * (z[1] - z[0] ** 2), 1.0 - z[0]])


def _rosenbrock_jacobian(z):
    return np.array([[-20.0 * z[0], 10.0], [-1.0, 0.0]])


class TestInnerDriver:
    """optimizer.least_squares runs MINPACK's lmder, through scipy's leastsq,
    as scipy's least_squares(method="lm", x_scale=1.0) runs it on the padded problem."""

    @pytest.mark.parametrize("make_spec", [_benchmark_search_234, _acceptance_search_223])
    def test_searches_keep_their_bits(self, monkeypatch, make_spec):
        spec = make_spec()
        ours = maximize_ssp(spec)
        monkeypatch.setattr(optimizer, "least_squares", _scipy_lm_padded)
        theirs = maximize_ssp(spec)
        for key in ("D", "Ahat", "A", "theta", "bhat", "b"):
            assert same_bits(getattr(ours.method, key), getattr(theirs.method, key)), key
        assert same_bits(ours.C, theirs.C) and ours.certified == theirs.certified
        assert len(ours.history) == len(theirs.history)
        for a, b in zip(ours.history, theirs.history):
            assert same_bits(a[:3], b[:3]) and a[3] == b[3], (a, b)
            # no Jacobian is computed to report the gradient at the end
            assert a[4] <= b[4], (a, b)
        assert sum(row[4] for row in ours.history) < sum(row[4] for row in theirs.history)

    @pytest.mark.parametrize("max_nfev", [3, MAX_INNER_ITERS])
    def test_result_fields_match_scipy(self, monkeypatch, max_nfev):
        monkeypatch.setattr(optimizer, "MAX_INNER_ITERS", max_nfev)
        x0 = np.array([-1.2, 1.0])
        ours = optimizer.least_squares(_rosenbrock, x0, jac=_rosenbrock_jacobian)
        theirs = _scipy_lm(_rosenbrock, x0, jac=_rosenbrock_jacobian)
        assert same_bits(ours.x, theirs.x) and same_bits(ours.cost, theirs.cost)
        assert same_bits(ours.cost, 0.5 * np.dot(_rosenbrock(ours.x), _rosenbrock(ours.x)))
        assert (ours.nfev, ours.njev, ours.status) == (theirs.nfev, theirs.njev, theirs.status)
        # status 0 is a spent budget, as the tracer counts it
        assert (ours.status == 0) == (max_nfev == 3) and ours.nfev <= max_nfev

    def test_each_residual_is_computed_once(self):
        points = []

        def counting(z):
            points.append(z.copy())
            return _rosenbrock(z)

        x0 = np.array([-1.2, 1.0])
        sol = optimizer.least_squares(counting, x0, jac=_rosenbrock_jacobian)
        assert sol.status > 0 and len(points) == sol.nfev
        assert sum(np.array_equal(z, x0) for z in points) == 1

    def test_non_finite_residual_at_the_start_raises(self):
        with pytest.raises(ValueError, match="Residuals are not finite in the initial point"):
            optimizer.least_squares(lambda z: np.array([np.nan, z[0]]), np.zeros(2),
                                    jac=lambda z: np.eye(2))


class TestSearchSpec:
    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(s=2, k=2, p=0)

    @pytest.mark.parametrize("s, k, p, message", [
        (0, 2, 2, "s and k must be at least 1"),
        (2, 0, 2, "s and k must be at least 1"),
        (2, 2, 13, "p must be at most 12"),
    ])
    def test_bad_shape_or_order_rejected(self, s, k, p, message):
        with pytest.raises(ValueError, match=message):
            SearchSpec(s=s, k=k, p=p)

    def test_bad_starts_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(s=2, k=2, p=1, starts=0)

    @pytest.mark.parametrize("r_tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_r_tol_not_finite_and_positive_rejected(self, r_tol):
        # r_tol = 0 bisected forever: the bracket stops shrinking at neighbouring floats
        with pytest.raises(ValueError, match="r_tol must be positive and finite"):
            SearchSpec(s=2, k=2, p=3, r_tol=r_tol)

    @pytest.mark.parametrize("start", [gen_second_order(3, 2), ssprk33()], ids=lambda m: m.name)
    def test_warm_start_of_another_shape_rejected(self, start):
        message = (rf"warm start {re.escape(start.name)} is an \(s={start.s}, k={start.k}\) "
                   r"method, not \(s=2, k=2\)")
        with pytest.raises(ValueError, match=message):
            SearchSpec(s=2, k=2, p=2, starts=1, warm_starts=[start])

    def test_warm_starts_cannot_change_after_the_shape_check(self):
        starts = warm_start_ladder(2, 2, 3)
        spec = SearchSpec(s=2, k=2, p=3, starts=1, warm_starts=starts)
        starts.insert(0, gen_second_order(3, 2))
        assert isinstance(spec.warm_starts, tuple)
        assert [m.name for m in spec.warm_starts] == [m.name for m in starts[1:]]
        with pytest.raises(AttributeError):
            spec.warm_starts.insert(0, gen_second_order(3, 2))

    def test_specs_compare_by_their_warm_starts_identity(self):
        starts = warm_start_ladder(2, 2, 3)
        spec = SearchSpec(s=2, k=2, p=3, starts=1, warm_starts=starts)
        same = SearchSpec(s=2, k=2, p=3, starts=1, warm_starts=starts)
        rebuilt = SearchSpec(s=2, k=2, p=3, starts=1, warm_starts=warm_start_ladder(2, 2, 3))
        assert spec == same and hash(spec) == hash(same)
        assert spec != rebuilt and len({spec, same, rebuilt}) == 2

    def test_invalid_warm_start_rejected(self):
        # rejected when the start is built, so before the spec, R or any solve
        with pytest.raises(MethodStructureError, match="^row 2 of D sums to 1.1"):
            SearchSpec(s=2, k=2, p=2, starts=1, warm_starts=[
                gen_second_order(2, 2),
                MSRKMethod(s=2, k=2, D=[[0.0, 1.0], [0.5, 0.6]], Ahat=np.zeros((2, 1)),
                           A=[[0.0, 0.0], [1.0, 0.0]], theta=[0.5, 0.5], bhat=[0.0],
                           b=[0.5, 0.5]),
            ])
