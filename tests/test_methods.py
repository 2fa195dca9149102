import dataclasses
import inspect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from sspmsrk import methods, pdelab
from sspmsrk.methods import (
    BISECT_TOL,
    ENTRY_TOL,
    MethodStructureError,
    MSRKMethod,
    SpijkerForm,
    _bisect,
    _horner,
    _largest_nonnegative,
    canonical,
    forward_euler,
    ssp_coefficient,
    ssprk33,
    to_spijker,
    validate,
)
from sspmsrk.optimizer import pack
from sspmsrk.orderlab import oracle_order
from sspmsrk.pdelab import advection_upwind
from sspmsrk.series import bushy_trees, elementary_weights
from sspmsrk.theory import gen_second_order, r_sk2, stability_polynomials

from conftest import count_builds, random_valid_method, stack_forms


class TestValidate:
    def test_forward_euler_valid(self):
        assert validate(forward_euler()).ok

    def test_bad_theta_sum_reported(self):
        with pytest.raises(MethodStructureError, match="theta sums to 0.9"):
            MSRKMethod(
                s=1, k=2,
                D=[[0.0, 1.0]], Ahat=[[0.0]], A=[[0.0]],
                theta=[0.5, 0.4], bhat=[0.0], b=[1.0],
            )

    def test_gen_second_order_valid(self):
        assert validate(gen_second_order(2, 2)).ok

    def test_bad_first_row_of_D(self):
        with pytest.raises(MethodStructureError, match=r"^row 1 of D must be \[0.0, 1.0\]"):
            MSRKMethod(
                s=1, k=2,
                D=[[1.0, 0.0]], Ahat=[[0.0]], A=[[0.0]],
                theta=[0.5, 0.5], bhat=[0.0], b=[1.0],
            )

    def test_nonexplicit_A(self):
        with pytest.raises(MethodStructureError, match="strictly lower triangular"):
            MSRKMethod(
                s=2, k=1,
                D=[[1.0], [1.0]], Ahat=np.zeros((2, 0)), A=[[0.0, 0.5], [0.5, 0.0]],
                theta=[1.0], bhat=[], b=[0.5, 0.5],
            )

    def test_non_finite_coefficient_reported(self):
        with pytest.raises(MethodStructureError, match="^coefficients must be finite$"):
            MSRKMethod(
                s=3, k=1,
                D=[[1.0], [1.0], [1.0]], Ahat=np.zeros((3, 0)), A=ssprk33().A,
                theta=[1.0], bhat=[], b=[np.nan, 0.3, 0.3],
            )

    def test_nonzero_first_row_of_Ahat(self):
        with pytest.raises(MethodStructureError, match="^row 1 of Ahat must be identically zero$"):
            MSRKMethod(
                s=2, k=2,
                D=[[0.0, 1.0], [0.0, 1.0]], Ahat=[[0.5], [0.0]], A=[[0.0, 0.0], [1.0, 0.0]],
                theta=[0.0, 1.0], bhat=[0.0], b=[0.5, 0.5],
            )

    def test_invalid_method_raises_with_every_violation(self):
        with pytest.raises(MethodStructureError) as exc:
            MSRKMethod(s=2, k=2, D=[[0.5, 0.5], [0.0, 1.0]], Ahat=[[0.0], [0.0]],
                       A=[[0.0, 1.0], [1.0, 0.0]], theta=[0.5, 0.4], bhat=[0.0], b=[0.5, 0.5])
        assert str(exc.value) == ("row 1 of D must be [0.0, 1.0], got [0.5, 0.5]; "
                                  "row 1 of A must be identically zero; "
                                  "A must be strictly lower triangular (explicit method); "
                                  "theta sums to 0.90000000000000002 != 1")

    @pytest.mark.parametrize("order", [0, -10000])
    def test_claimed_order_below_one_rejected(self, order):
        # pdelab.startup's substeps dt**(p/3) need p >= 1
        with pytest.raises(MethodStructureError,
                           match=f"^the claimed order must be at least 1, got {order}$"):
            dataclasses.replace(ssprk33(), claimed_order=order)

    def test_replace_with_a_violation_raises(self):
        with pytest.raises(MethodStructureError, match="^theta sums to 0.5 != 1$"):
            dataclasses.replace(ssprk33(), theta=[0.5])

    def test_validated_once_per_method(self, monkeypatch):
        # building the method validates it; nothing the method is later used for does
        calls = []
        monkeypatch.setattr(methods, "validate", lambda m: calls.append(m) or validate(m))
        m = ssprk33()
        assert calls == [m]
        sp = to_spijker(m)
        pack(m)
        ssp_coefficient(sp)
        oracle_order(m, pmax=4)
        problem = advection_upwind()
        pdelab.run(problem, m, 0.5 * problem.dt_fe, 4 * problem.dt_fe)
        assert calls == [m]

    @pytest.mark.parametrize("s, k", [(0, 1), (1, 0), (-1, 2)])
    def test_no_stage_or_step_rejected(self, s, k):
        with pytest.raises(MethodStructureError, match="^s and k must be at least 1$"):
            MSRKMethod(s=s, k=k, D=[], Ahat=[], A=[], theta=[], bhat=[], b=[])


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

    def test_the_matrix_alone_is_given(self):
        assert list(inspect.signature(SpijkerForm).parameters) == ["ST"]

    @pytest.mark.parametrize("shape, k, s", [((2, 3), 1, 1), ((4, 5), 1, 3), ((5, 7), 2, 3),
                                             ((6, 2, 3, 4), 1, 2)])
    def test_k_and_s_are_read_from_the_shape(self, shape, k, s):
        sp = SpijkerForm(np.zeros(shape))
        assert (sp.k, sp.s) == (k, s)
        assert sp.S.shape == shape[:-1] + (k,) and sp.T.shape == shape[:-1] + (k + s,)

    @pytest.mark.parametrize("shape", [(5, 4), (2, 4), (3,), (), (3, 3)])
    def test_a_shape_with_no_stage_or_step_rejected(self, shape):
        with pytest.raises(MethodStructureError, match=f"got {re.escape(str(shape))}$"):
            SpijkerForm(np.zeros(shape))

    def test_the_dtype_is_kept(self):
        ST = np.array([[Fraction(1), Fraction(0), Fraction(0)],
                       [Fraction(1), Fraction(1, 2), Fraction(0)]], dtype=object)
        sp = SpijkerForm(ST)
        assert sp.ST.dtype == object and (sp.k, sp.s) == (1, 1)
        assert sp.T[1, 0] == Fraction(1, 2)

    def test_the_form_owns_a_read_only_copy(self):
        base = to_spijker(ssprk33()).ST.copy()
        view = base[:]
        sp = SpijkerForm(view)
        ST, C = sp.ST.copy(), ssp_coefficient(sp)
        assert C == pytest.approx(1.0, abs=1e-9)
        assert base.flags.writeable and view.flags.writeable and not sp.ST.flags.writeable
        base[3, 2] = -5.0
        assert np.array_equal(sp.ST, ST) and ssp_coefficient(sp) == C
        # the write is one that matters: a fresh form of the written matrix reads 0
        assert ssp_coefficient(SpijkerForm(view)) == 0.0


class TestCaches:
    """A method owns its coefficients, so its form, C and the canonical
    table are computed once per object."""

    def test_writing_the_callers_arrays_changes_nothing(self):
        ref = ssprk33()
        arrays = {f: np.array(getattr(ref, f)) for f in ("D", "Ahat", "A", "theta", "bhat", "b")}
        m = MSRKMethod(s=3, k=1, **arrays)
        sp = to_spijker(m)
        ST, C = sp.ST.copy(), ssp_coefficient(sp)
        arrays["A"][2, 0] = -5.0
        arrays["b"][:] = np.nan
        assert m.A[2, 0] == 0.25 and np.array_equal(m.b, ref.b)
        assert validate(m).ok
        assert to_spijker(m) is sp and np.array_equal(sp.ST, ST)
        assert ssp_coefficient(to_spijker(m)) == C == ssp_coefficient(to_spijker(ssprk33()))

    def test_each_value_is_built_once(self, monkeypatch):
        forms = count_builds(monkeypatch, MSRKMethod, "_spijker")
        coefficients = count_builds(monkeypatch, SpijkerForm, "_C")
        tables = count_builds(monkeypatch, SpijkerForm, "_table")
        m = gen_second_order(3, 2)
        sp = to_spijker(m)
        assert to_spijker(m) is sp and len(forms) == 1 and forms[0] is m
        C = ssp_coefficient(sp)
        assert ssp_coefficient(sp) is C and len(coefficients) == 1 and coefficients[0] is sp
        table = sp._table
        psi = stability_polynomials(sp)
        np.testing.assert_array_equal(stability_polynomials(sp), psi)
        assert sp._table is table and len(tables) == 1 and tables[0] is sp


class TestIdentity:
    """Methods, forms, canonical forms and problems hold arrays, so they compare
    and hash by identity."""

    @pytest.mark.parametrize("make", [ssprk33, lambda: to_spijker(ssprk33()),
                                      lambda: canonical(to_spijker(ssprk33()), 0.5),
                                      advection_upwind],
                             ids=["method", "form", "canonical", "problem"])
    def test_equal_only_to_itself(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and hash(a) != hash(b)
        assert a in {a} and b not in {a} and len({a, b, a}) == 2


def _canonical_by_lu(sp, r):
    """[R | P] by np.linalg.solve on I + rT, a pivoted LU, for a form or a stack."""
    n, k = sp.S.shape[-2:]
    X = np.linalg.solve(np.eye(n) + r * sp.T, sp.ST)
    return np.concatenate([X[..., :k], r * X[..., k:]], axis=-1)


@st.composite
def _forms(draw):
    """(sp, C): the Spijker form of a random valid method, or a stack of 2-4 forms
    of one shape, and the largest C of its members."""
    s, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = [random_valid_method(rng, s, k) for _ in range(draw(st.integers(1, 4)))]
    C = max(ssp_coefficient(to_spijker(m)) for m in members)
    return (to_spijker(members[0]) if len(members) == 1 else stack_forms(members)), C


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
        with pytest.raises(ValueError, match="^r must be nonnegative, got -1.0$"):
            canonical(to_spijker(forward_euler()), -1.0)

    def test_nan_r_rejected(self):
        # a nan r gave P and R of nan
        with pytest.raises(ValueError, match="^r must be nonnegative, got nan$"):
            canonical(to_spijker(forward_euler()), math.nan)

    def test_fraction_form_element_types(self):
        # the types that come out are not settled: a float r mixes them in R
        ST = to_spijker(ssprk33()).ST
        f = SpijkerForm(np.array([[Fraction(x).limit_denominator(6) for x in row] for row in ST],
                                  dtype=object))
        cf = canonical(f, 0.5)
        assert {type(x) for x in cf.P.ravel()} == {float}
        assert {type(x) for x in cf.R[: f.k].ravel()} == {Fraction}
        assert {type(x) for x in cf.R[f.k :].ravel()} == {float}
        cf = canonical(f, Fraction(1, 2))
        assert {type(x) for x in np.concatenate([cf.P.ravel(), cf.R.ravel()])} == {Fraction}
        assert cf.R[-1, 0] == Fraction(29, 48)

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

    @settings(max_examples=150, deadline=None)
    @given(_forms(), st.floats(0.0, 2.0))
    def test_forward_substitution_matches_the_lu_solve_and_the_table(self, forms, frac):
        sp, C = forms
        r = frac * C
        cf = canonical(sp, r)
        got = np.concatenate([cf.R, cf.P], axis=-1)
        for want in (_canonical_by_lu(sp, r), _horner(sp._table, r)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_overflow_raises_without_a_warning(self):
        # at lower A entries of 1e200, r T[i, :i] X[:i] overflows; the pivoted LU
        # called I + rT singular there
        A = np.where(np.tri(3, k=-1) > 0, 1e200, 0.0)
        sp = to_spijker(dataclasses.replace(ssprk33(), A=A))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
                canonical(sp, 1.0)


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
        assert ssp_coefficient(SpijkerForm(np.hstack([S, T]))) == 0.0

    def test_a_bound_that_fails_at_the_boundary_gives_zero(self, monkeypatch):
        # the forward-substitution guard overrules the polynomial table
        monkeypatch.setattr(methods, "_feasible", lambda sp, r: False)
        assert ssp_coefficient(to_spijker(ssprk33())) == 0.0

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

    def test_kept_on_the_form(self, monkeypatch):
        # the form is read-only, so a second call reads the first one's C
        sp = to_spijker(gen_second_order(4, 3))
        C = ssp_coefficient(sp)
        monkeypatch.setattr(methods, "canonical", None)  # a second solve would fail
        assert ssp_coefficient(sp) is C

    def test_overflowing_table_raises_without_a_warning(self):
        # at A entries of 1e200, -T @ [S | T] overflows while the table is built
        A = np.where(np.tri(3, k=-1) > 0, 1e200, 0.0)
        sp = to_spijker(dataclasses.replace(ssprk33(), A=A))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
                ssp_coefficient(sp)

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


def _doubled_and_bisected(passes, hi):
    """The largest passing radius by a doubling from hi and ``_bisect``, one radius per call."""
    lo = 0.0
    while passes(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            return math.inf
    return _bisect(passes, lo, hi, BISECT_TOL)[0]


def _ssp_coefficient_by_lu(sp):
    """C on the margin of the LU solve."""
    def passes(r):
        return _canonical_by_lu(sp, r).min() >= -ENTRY_TOL

    return 0.0 if sp.S.min() < -ENTRY_TOL else _doubled_and_bisected(passes, float(sp.s + 1))


def _finite_and_nonnegative(coef):
    """Whether the table at r is finite and at least -ENTRY_TOL, through npoly."""
    def passes(r):
        with np.errstate(all="ignore"):
            v = polyval(r, coef)
        return bool(np.isfinite(v).all() and v.min() >= -ENTRY_TOL)

    return passes


class TestLargestNonnegative:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4), st.floats(0.0, 2.0))
    def test_table_matches_the_lu_solve(self, seed, s, k, frac):
        sp = to_spijker(random_valid_method(np.random.default_rng(seed), s, k))
        C = ssp_coefficient(sp)
        r = frac * C
        want = _canonical_by_lu(sp, r)
        got = polyval(r, sp._table)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert C == pytest.approx(_ssp_coefficient_by_lu(sp), rel=0, abs=BISECT_TOL)

    @pytest.mark.parametrize("coef, hi", [
        ([[1.0 / 3.0], [-1.0]], 1.0),  # crosses at 1/3 + ENTRY_TOL
        ([[1.0], [0.0], [1e300]], 1.0),  # positive, but overflows past about 1.3e4
        ([[1.0], [-np.inf]], 0.5),  # an infinite coefficient fails every radius
        ([[0.0, np.nan]], 3.0),  # a NaN fails every radius
        ([[0.0], [np.inf], [-np.inf]], 4.0),  # inf - inf
    ])
    def test_a_non_finite_radius_fails_without_a_warning(self, coef, hi):
        coef = np.array(coef)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _largest_nonnegative(coef, hi)
        assert type(got) is float
        assert got.hex() == _doubled_and_bisected(_finite_and_nonnegative(coef), hi).hex()


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
