import contextlib
import csv
import dataclasses
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from sspmsrk import cli, optimizer, pdelab
from sspmsrk.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from sspmsrk.methods import MSRKMethod, ssprk33
from sspmsrk.msrkio import dumps_method, read_method, write_method
from sspmsrk.theory import gen_second_order, r_sk2

from conftest import BENCH_METHODS


def _unreachable(*args, **kwargs):
    pytest.fail("an invalid argument reached a loop")


@pytest.fixture()
def ssprk33_file(tmp_path):
    path = tmp_path / "ssprk33.msrk"
    write_method(ssprk33(), path)
    return str(path)


@pytest.fixture()
def so2_file(tmp_path):
    path = tmp_path / "so2_32.msrk"
    write_method(gen_second_order(3, 2), path)
    return str(path)


class TestGenSo2:
    def test_writes_valid_method_file(self, tmp_path, capsys):
        out = tmp_path / "so2.msrk"
        code = main(["gen-so2", "--stages", "3", "--steps", "2", "--out", str(out)])
        assert code == EXIT_OK
        method = read_method(out)
        assert (method.s, method.k) == (3, 2)
        assert "SO2(3,2)" in capsys.readouterr().out

    def test_unallocatable_size_exits_2(self, tmp_path, capsys):
        # 1.4 EiB exceeds every address space, so the allocation fails at
        # once even where the kernel overcommits memory without limit
        code = main(["gen-so2", "--stages", str(10**17), "--steps", "2",
                     "--out", str(tmp_path / "big.msrk")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err


class TestAnalyze:
    def test_ssprk33_report(self, ssprk33_file, capsys):
        assert main(["analyze", ssprk33_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "valid" not in out
        assert "C: 1.000000000" in out
        assert "oracle_order: 3" in out
        assert "stage_order: 1" in out
        assert "bound_C_le_s: ok" in out
        assert float(out.split("linear_bound: ")[1].split()[0]) == pytest.approx(1.0, abs=1e-6)
        assert "bound_C_le_R: ok" in out

    def test_invalid_method_exits_3(self, tmp_path, capsys):
        text = dumps_method(ssprk33()).replace(
            "theta = [1]", "theta = [0.5]"
        )
        path = tmp_path / "bad.msrk"
        path.write_text(text.replace("D = [[1], [1], [1]]", "D = [[0.5], [1], [1]]"))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""  # the file fails when read, before any report
        assert err == ("error: row 1 of D must be [1.0], got [0.5]; row 1 of D sums to 0.5 != 1; "
                       "theta sums to 0.5 != 1\n")

    @pytest.mark.parametrize("value", ["{}", "[{}]", "[" * 100_000, "1" + "0" * 400],
                             ids=["dict", "list-of-dict", "deep-nesting", "huge-integer"])
    def test_malformed_array_exits_3(self, tmp_path, capsys, value):
        lines = dumps_method(ssprk33()).splitlines()
        path = tmp_path / "bad.msrk"
        path.write_text("\n".join(lines[:-1] + [f"b = {value}"]) + "\n")
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: not a numeric array (line 11, field 'b')\n"

    def test_non_finite_coefficient_exits_3(self, tmp_path, capsys):
        text = dumps_method(ssprk33())
        start = text.index("\nb = [") + 1
        end = text.index("\n", start)
        path = tmp_path / "nan.msrk"
        path.write_text(text[:start] + "b = [NaN, 0.3, 0.3]" + text[end:])
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: coefficients must be finite\n")

    def test_method_without_f_has_no_stage_bound(self, tmp_path, capsys):
        m = dataclasses.replace(ssprk33(), s=2, D=[[1.0], [1.0]], Ahat=[[], []],
                                A=[[0.0, 0.0], [0.0, 0.0]], b=[0.0, 0.0])
        path = tmp_path / "still.msrk"
        write_method(m, path)
        assert main(["analyze", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "C: inf" in out
        assert "oracle_order: 0" in out
        assert "threshold_factor: inf" in out
        assert "bound_C_le_s" not in out

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.msrk")]) == EXIT_USAGE

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == EXIT_USAGE
        assert str(tmp_path) in capsys.readouterr().err


class TestOptimize:
    def test_small_search_succeeds(self, tmp_path, capsys):
        out = tmp_path / "opt.msrk"
        code = main([
            "optimize", "--stages", "2", "--steps", "2", "--order", "2",
            "--starts", "8", "--seed", "11", "--r-tol", "1e-3",
            "--out", str(out), "--log", str(tmp_path / "log.csv"),
        ])
        assert code == EXIT_OK
        method = read_method(out)
        assert (method.s, method.k, method.claimed_order) == (2, 2, 2)
        out = capsys.readouterr().out
        assert "certified: yes" in out
        R = float(out.split("linear_bound: ")[1].split()[0])
        assert R == pytest.approx(r_sk2(2, 2), abs=1e-6)
        Ceff = float(out.split("C_eff: ")[1].split()[0])
        assert float(out.split("gap: ")[1].split()[0]) == pytest.approx(R / 2 - Ceff, abs=1e-8)
        assert (tmp_path / "log.csv").read_text().startswith("start,r,merit")

    @pytest.mark.parametrize("r_tol", ["0", "nan"])
    def test_bad_r_tol_exits_2(self, tmp_path, capsys, monkeypatch, r_tol):
        monkeypatch.setattr(cli, "maximize_ssp", _unreachable)
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "3",
                     "--r-tol", r_tol, "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: r_tol must be positive and finite\n"

    def test_r_tol_not_below_the_bracket_exits_2_without_a_solve(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the bisection would make no probe and report the feasible (2,2,3) infeasible
        monkeypatch.setattr(optimizer, "least_squares", _unreachable)
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "3",
                     "--r-tol", "1e300", "--starts", "1", "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("error: r_tol must be below the bracket "
                                           "R(2,2,3) + 1e-06 = 0.732052\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--stages", "0", "s and k must be at least 1"),
        ("--steps", "0", "s and k must be at least 1"),
        ("--order", "13", "p must be at most 12"),
    ])
    def test_bad_shape_or_order_exits_2(self, tmp_path, capsys, monkeypatch, flag, value,
                                        message):
        monkeypatch.setattr(cli, "maximize_ssp", _unreachable)
        args = {"--stages": "2", "--steps": "2", "--order": "3", flag: value}
        code = main(["optimize", *(x for item in args.items() for x in item),
                     "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_absent_search_flags_take_the_spec_defaults(self, tmp_path, monkeypatch):
        specs = []

        def capture(spec):
            specs.append(spec)
            raise optimizer.SearchFailure("captured")

        monkeypatch.setattr(cli, "maximize_ssp", capture)
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "3",
                     "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_INFEASIBLE
        defaults = optimizer.SearchSpec(s=2, k=2, p=3)
        assert [(sp.starts, sp.seed, sp.r_tol) for sp in specs] == [
            (defaults.starts, defaults.seed, defaults.r_tol)]

    def test_negative_seed_exits_2_before_the_linear_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "linear_bound", _unreachable)
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "3",
                     "--seed", "-1", "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"

    def test_no_positive_linear_bound_exits_4_without_a_solve(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(optimizer, "_solve_feasibility", _unreachable)
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "4",
                     "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_INFEASIBLE
        assert "linear bound R(2,2,4)" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 14),
           st.sampled_from([0.0, -1e-3, float("nan"), float("inf")]) | st.floats(),
           st.sampled_from([-1, 2**64, 2**70]) | st.integers(-2**70, 2**70))
    def test_any_shape_order_and_r_tol_exits_cleanly(self, tmp_path_factory, s, k, p, r_tol,
                                                     seed):
        # the solver reports every radius infeasible, so no real search runs
        def infeasible(spec, r, starts, history):
            return None, float("inf")

        out = tmp_path_factory.mktemp("optimize") / "x.msrk"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_solve_feasibility", infeasible)
            code = main(["optimize", f"--stages={s}", f"--steps={k}", f"--order={p}",
                         f"--r-tol={r_tol}", f"--seed={seed}", f"--out={out}"])
        assert code in {0, 1, 2, 3, 4, 5}

    def test_uncertified_result_exits_1(self, tmp_path, capsys, monkeypatch):
        # the oracle finds one order less than asked, so the search's method is not certified
        monkeypatch.setattr(optimizer, "oracle_order", lambda method, pmax: pmax - 1)
        out = tmp_path / "opt.msrk"
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "2",
                     "--starts", "8", "--seed", "11", "--r-tol", "1e-3", "--out", str(out)])
        assert code == EXIT_UNCERTIFIED
        assert "certified: no\n" in capsys.readouterr().out
        assert read_method(out).claimed_order == 2  # the method is still written

    def test_tiny_r_tol_ends_certified(self, tmp_path, capsys):
        # the bisection runs to neighbouring floats; a merit under feas_tol**2
        # that leaves the method short of its radius must not move it up
        code = main(["optimize", "--stages", "2", "--steps", "2", "--order", "3",
                     "--starts", "2", "--r-tol", "1e-300", "--out", str(tmp_path / "x.msrk")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "certified: yes" in out
        assert float(out.split("C: ")[1].split()[0]) == pytest.approx(0.7320508, abs=1e-6)

    def test_infeasible_exits_4(self, tmp_path, capsys):
        code = main([
            "optimize", "--stages", "1", "--steps", "1", "--order", "2",
            "--starts", "4", "--r-tol", "1e-2", "--out", str(tmp_path / "x.msrk"),
        ])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err


class TestRun:
    def test_advection_monitors_csv(self, tmp_path, ssprk33_file, capsys):
        # 0.05 is 10.4 steps of 0.0048: the run ends at the 10th, before --tf
        out = tmp_path / "run.csv"
        code = main([
            "run", "--problem", "advection", "--method", ssprk33_file,
            "--dt", "0.0048", "--tf", "0.05", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "min", "tv"]
        assert len(rows) == 12
        assert float(rows[-1][0]) == pytest.approx(0.048, abs=1e-12)
        printed = capsys.readouterr().out
        assert "final_error: " in printed
        assert f"wrote 11 rows to {out}, the last at t = 0.048\n" in printed

    @pytest.mark.parametrize("command", ["run", "stepsearch"])
    def test_start_up_is_no_flag(self, capsys, command):
        # the problem fixes its start-up
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--startup" not in capsys.readouterr().out

    def test_buckley_default_startup(self, tmp_path, so2_file):
        code = main(["run", "--problem", "buckley", "--method", so2_file,
                     "--dt", "0.002", "--tf", "0.02", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_OK

    def test_negative_dt_exits_2(self, tmp_path, ssprk33_file, capsys):
        code = main(["run", "--problem", "advection", "--method", ssprk33_file,
                     "--dt", "-1", "--tf", "0.05", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: dt must be positive")
        assert "Traceback" not in err

    @pytest.mark.parametrize("tf", ["inf", "nan"])
    def test_non_finite_horizon_exits_2(self, tmp_path, ssprk33_file, capsys, monkeypatch, tf):
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        code = main(["run", "--problem", "advection", "--method", ssprk33_file,
                     "--dt", "0.005", "--tf", tf, "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: tf must be finite\n"

    def test_vdp_past_the_first_reference_horizon(self, tmp_path, ssprk33_file, capsys):
        code = main(["run", "--problem", "vdp", "--method", ssprk33_file,
                     "--dt", "0.05", "--tf", "6", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("final_error: ")[1].split()[0]) < 1e-6

    def test_vdp_past_the_reference_exits_2_before_stepping(self, tmp_path, ssprk33_file,
                                                           capsys, monkeypatch):
        monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
        code = main(["run", "--problem", "vdp", "--method", ssprk33_file,
                     "--dt", "0.01", "--tf", "2000", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: the van der Pol reference covers "
                                           f"0 <= t <= {pdelab.VDP_MAX_HORIZON:g}; "
                                           f"t = 2000 is outside it\n")

    def test_directory_as_output_exits_2(self, tmp_path, ssprk33_file, capsys):
        code = main(["run", "--problem", "advection", "--method", ssprk33_file,
                     "--dt", "0.005", "--tf", "0.05", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_invalid_method_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.msrk"
        path.write_text(dumps_method(ssprk33()).replace("theta = [1]", "theta = [0.5]"))
        code = main(["run", "--problem", "advection", "--method", str(path),
                     "--dt", "0.005", "--tf", "0.05", "--out", str(tmp_path / "run.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_problem_exits_2(self, ssprk33_file):
        with pytest.raises(SystemExit):
            main(["run", "--problem", "heat", "--method", ssprk33_file,
                  "--dt", "0.01", "--tf", "0.1", "--out", "x.csv"])


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "advection", "--dt", "1e-12", "--tf", "1"],
    ["run", "--problem", "buckley", "--dt", "1e-10", "--tf", "0.01"],
    ["stepsearch", "--problem", "advection", "--tf", "1e9"],
])
def test_too_many_steps_exits_2_before_stepping(tmp_path, ssprk33_file, capsys, monkeypatch,
                                                 argv):
    # a missing guard fails at the first step instead of running for hours
    monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
    code = main(argv + ["--method", ssprk33_file, "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the run needs ")
    assert f"steps, more than MAX_STEPS = {pdelab.MAX_STEPS:g}" in err
    assert "Traceback" not in err


BENCH_OPT_234 = str(Path(__file__).resolve().parents[1] / "perfbench" / "methods"
                    / "opt_2_3_4.msrk")


@pytest.mark.parametrize("order, argv", [
    # dt**(p/3) underflows to 0
    (400, ["run", "--problem", "buckley", "--dt", "0.001", "--tf", "0.01"]),
    (None, ["run", "--problem", "buckley", "--dt", "1e-300", "--tf", "4e-300"]),
    # 1e37 substeps per start-up interval
    (40, ["run", "--problem", "buckley", "--dt", "0.001", "--tf", "0.01"]),
    (400, ["stepsearch", "--problem", "buckley"]),
])
def test_too_many_or_vanishing_start_up_substeps_exit_2(tmp_path, capsys, monkeypatch, order,
                                                        argv):
    monkeypatch.setattr(pdelab, "msrk_step", _unreachable)
    path = BENCH_OPT_234
    if order is not None:  # an SO2(2,2) file that claims a high order
        path = str(tmp_path / "so2_22.msrk")
        write_method(dataclasses.replace(gen_second_order(2, 2), claimed_order=order), path)
    code = main(argv + ["--method", path, "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the run needs ")
    assert err.endswith(f"steps, more than MAX_STEPS = {pdelab.MAX_STEPS:g}\n")
    assert "Traceback" not in err


def test_overflowing_canonical_table_exits_5(tmp_path, capsys):
    # at A entries of 1e200 the polynomial table of P and R in r overflows
    method = ssprk33()
    A = np.where(np.tri(3, k=-1) > 0, 1e200, 0.0)
    path = tmp_path / "huge.msrk"
    write_method(dataclasses.replace(method, A=A), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", str(path)])
    assert code == EXIT_NUMERICAL
    assert not caught
    assert capsys.readouterr().err == "numerical failure: overflow encountered in matmul\n"


def test_analyze_overflowing_past_c_exits_5(tmp_path, capsys):
    # at A entries of 1e100 C's table holds, but the orders and the threshold
    # factor overflow; their overflowed values gave oracle order 1 and exit 0
    A = np.where(np.tri(3, k=-1) > 0, 1e100, 0.0)
    path = tmp_path / "large.msrk"
    write_method(dataclasses.replace(ssprk33(), A=A), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", str(path)])
    assert code == EXIT_NUMERICAL
    assert not caught
    out, err = capsys.readouterr()
    assert "oracle_order" not in out
    assert err.startswith("numerical failure: overflow encountered in ")


def _two_hundred_steps_reading_the_oldest():
    # one stage reads u^n; the new step averages it with u^{n-199}
    k = 200
    return MSRKMethod(s=1, k=k, D=[[0.0] * (k - 1) + [1.0]], Ahat=np.zeros((1, k - 1)),
                      A=[[0.0]], theta=[0.5] + [0.0] * (k - 2) + [0.5], bhat=np.zeros(k - 1),
                      b=[1.0], name="200 steps", claimed_order=1)


@pytest.mark.parametrize("method, argv", [
    # the start-up substep dt**(p/3) overflows a float
    (None, ["run", "--problem", "buckley", "--method", "{path}", "--dt", "1e300", "--tf", "3e300",
            "--out", "{out}"]),
    # the linear order conditions of 200 steps convert 171! and above to float
    (_two_hundred_steps_reading_the_oldest(), ["analyze", "{path}"]),
], ids=["run", "analyze"])
def test_overflowing_python_float_exits_5(tmp_path, capsys, method, argv):
    path = BENCH_METHODS / "opt_2_3_4.msrk"
    if method is not None:
        path = tmp_path / "method.msrk"
        write_method(method, path)
    code = main([a.format(path=path, out=tmp_path / "out.csv") for a in argv])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, target", [
    (["analyze", "{ssprk33}"], "R(3,1,3)"),
    (["optimize", "--stages", "2", "--steps", "2", "--order", "3", "--out", "{out}"], "R(2,2,3)"),
])
def test_linear_bound_solver_failure_exits_5(tmp_path, ssprk33_file, capsys, monkeypatch, argv,
                                             target):
    def capped(A, b, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(scipy.optimize, "nnls", capped)
    code = main([a.format(ssprk33=ssprk33_file, out=tmp_path / "x.msrk") for a in argv])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: NNLS for {target} did not converge at r = 0.001\n")


def test_non_finite_start_up_exits_5(tmp_path, so2_file, capsys, monkeypatch):
    problem = pdelab.buckley_leverett()
    monkeypatch.setitem(cli._PROBLEMS, "buckley", lambda: dataclasses.replace(
        problem, rhs=lambda u: np.full_like(u, np.inf)))
    code = main(["run", "--problem", "buckley", "--method", so2_file,
                 "--dt", "0.002", "--tf", "0.02", "--out", str(tmp_path / "run.csv")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite state during start-up, in interval 1 of 1..1\n"


class TestStepsearch:
    def test_tvd_only(self, tmp_path, ssprk33_file, capsys):
        out = tmp_path / "search.csv"
        code = main([
            "stepsearch", "--problem", "advection", "--method", ssprk33_file,
            "--property", "tvd", "--resolution", "1e-4",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["dt_tvd/dx"]) == pytest.approx(1.0, abs=0.02)
        assert rows[0]["dt_pos/dx"] == ""

    @pytest.mark.parametrize("order", [0, -10000])
    def test_claimed_order_below_one_exits_3(self, tmp_path, capsys, monkeypatch, order):
        # at -10000 the start-up substep dt**(p/3) overflowed, and exit 5 named neither
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        text = (BENCH_METHODS / "opt_2_2_3.msrk").read_text()
        path = tmp_path / "low.msrk"
        path.write_text(text.replace("claimed_order = 3", f"claimed_order = {order}"))
        code = main(["stepsearch", "--problem", "buckley", "--method", str(path),
                     "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: the claimed order must be at least 1, got {order}\n"

    @pytest.mark.parametrize("flag, value", [("--resolution", "0"), ("--resolution", "nan"),
                                             ("--tf", "nan")])
    def test_bad_resolution_or_horizon_exits_2(self, tmp_path, ssprk33_file, capsys,
                                               monkeypatch, flag, value):
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        code = main(["stepsearch", "--problem", "advection", "--method", ssprk33_file,
                     flag, value, "--out", str(tmp_path / "search.csv")])
        assert code == EXIT_USAGE
        message = {"--resolution": "resolution must be positive and below the bracket "
                                   "20*dt_fe = 0.19802",
                   "--tf": "tf must be positive and finite"}[flag]
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_resolution_not_below_the_bracket_exits_2(self, tmp_path, ssprk33_file, capsys,
                                                       monkeypatch):
        # the bisection would make no probe and report a step of 0
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        code = main(["stepsearch", "--problem", "advection", "--method", ssprk33_file,
                     "--resolution", "1e9", "--out", str(tmp_path / "search.csv")])
        assert code == EXIT_USAGE
        assert (capsys.readouterr().err
                == "error: resolution must be positive and below the bracket "
                   "20*dt_fe = 0.19802\n")

    def test_problem_without_monitors_exits_2(self, tmp_path, ssprk33_file, capsys,
                                              monkeypatch):
        monkeypatch.setattr(pdelab, "startup", _unreachable)
        code = main(["stepsearch", "--problem", "vdp", "--method", ssprk33_file,
                     "--out", str(tmp_path / "search.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: problem 'vdp' has no monitor for property 'tvd'\n"

    def test_buckley_positivity_default_startup(self, tmp_path, so2_file):
        out = tmp_path / "search.csv"
        code = main(["stepsearch", "--problem", "buckley", "--method", so2_file,
                     "--property", "positivity", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["dt_pos/dx"]) > 0.0

    def test_one_row_per_method(self, tmp_path, ssprk33_file, so2_file):
        out = tmp_path / "search.csv"
        code = main(["stepsearch", "--problem", "advection", "--method", ssprk33_file, so2_file,
                     "--property", "tvd", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["(3,1,3)", "(3,2,2)"]
        assert float(rows[1]["C*dt_fe/dx"]) == pytest.approx(r_sk2(3, 2), abs=1e-6)

    def test_rows_named_after_their_method(self, tmp_path, so2_file):
        twin = tmp_path / "twin.msrk"
        write_method(dataclasses.replace(gen_second_order(3, 2), name="twin"), twin)
        out = tmp_path / "search.csv"
        code = main(["stepsearch", "--problem", "advection", "--method", so2_file, str(twin),
                     "--property", "tvd", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows] == ["SO2(3,2)", "twin"]

    def test_horizon_limited_rows_get_a_note(self, tmp_path, ssprk33_file, capsys):
        out = str(tmp_path / "search.csv")
        code = main(["stepsearch", "--problem", "advection", "--method", ssprk33_file,
                     "--tf", "0.001", "--out", out])
        assert code == EXIT_OK
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
        assert len(notes) == 2 and "SSPRK(3,3) tvd" in notes[0]
        assert main(["stepsearch", "--problem", "advection", "--method", ssprk33_file,
                     "--out", out]) == EXIT_OK
        assert "note:" not in capsys.readouterr().err


class TestConvergence:
    def test_non_vdp_rejected(self, ssprk33_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["convergence", "--problem", "advection",
                  "--method", ssprk33_file, "--out", "x.csv"])
        assert excinfo.value.code == EXIT_USAGE

    def test_vdp_slope(self, tmp_path, ssprk33_file, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--method", ssprk33_file,
                     "--tf", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        slope = float(printed.split("slope:")[1].split()[0])
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_blow_up_exits_5(self, tmp_path, capsys):
        # dt = 1000/14 is far past van der Pol's stable steps
        path = tmp_path / "so2_22.msrk"
        write_method(gen_second_order(2, 2), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--method", str(path), "--tf", "1000",
                         "--out", str(tmp_path / "conv.csv")])
        assert code == EXIT_NUMERICAL
        assert not caught  # the message below names the blow-up; numpy's warnings do not
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite state at step ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("tf", ["0", "-1", "nan", "inf"])
    def test_bad_horizon_exits_2_naming_tf(self, tmp_path, ssprk33_file, capsys, tf):
        code = main(["convergence", "--method", ssprk33_file, f"--tf={tf}",
                     "--out", str(tmp_path / "conv.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: tf must be positive and finite\n"

    def test_horizon_past_the_reference_exits_2(self, tmp_path, capsys, monkeypatch):
        # the last step's exact value u(1e300), read before the start-up, is past the
        # reference's cap, so the reference takes no step toward it
        pdelab._vdp_reference.cache_clear()
        monkeypatch.setattr(pdelab, "_vdp_taylor", _unreachable)
        path = tmp_path / "so2_22.msrk"
        write_method(gen_second_order(2, 2), path)
        code = main(["convergence", "--method", str(path), "--tf", "1e300",
                     "--out", str(tmp_path / "conv.csv")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: the van der Pol reference covers "
                                           f"0 <= t <= {pdelab.VDP_MAX_HORIZON:g}; "
                                           f"t = 1e+300 is outside it\n")

    def test_rows_for_each_method(self, tmp_path, ssprk33_file, so2_file, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--method", ssprk33_file, so2_file,
                     "--tf", "2.0", "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "dt", "error"]
        assert {row[0] for row in rows[1:]} == {"SSPRK(3,3)", "SO2(3,2)"}
        assert capsys.readouterr().out.count("slope:") == 2


class TestTable1:
    def test_grid_values(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--smax", "4", "--kmax", "3", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "k=2", "k=3"]
        assert rows[1][1] == f"{r_sk2(2, 2) / 2:.5f}"
        assert not any(cell.endswith("!") for row in rows[1:] for cell in row[1:])

    def test_mismatch_flagged_and_warned(self, tmp_path, capsys, monkeypatch):
        # a formula off by 1 disagrees with every generated method of the grid
        monkeypatch.setattr(cli, "r_sk2", lambda s, k: r_sk2(s, k) + 1.0)
        out = tmp_path / "table1.csv"
        assert main(["table1", "--smax", "3", "--kmax", "3", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert all(cell.endswith("!") for row in rows[1:] for cell in row[1:])
        assert capsys.readouterr().out.endswith(
            "warning: 4 generator/formula mismatches flagged with '!'\n")

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        code = main(["table1", "--smax", "40", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("grid", [["--smax", "1", "--kmax", "1"], ["--smax", "-3"],
                                      ["--kmax", "1"]])
    def test_empty_grid_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "t.csv"
        assert main(["table1", *grid, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "smax" in capsys.readouterr().err


def _flag(lo, hi):
    """A float flag: a bounded range plus 0, -1, nan and inf."""
    return st.floats(lo, hi) | st.sampled_from([0.0, -1.0, math.nan, math.inf])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Method files with one and two steps, and a path for outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = [str(root / "ssprk33.msrk"), str(root / "so2_22.msrk")]
    write_method(ssprk33(), paths[0])
    write_method(gen_second_order(2, 2), paths[1])
    return paths, str(root / "out")


def _exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in {0, 1, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


class TestFuzzExitCodes:
    """Any flag values end in an exit code of 0-5 with no traceback.  The
    ranges keep each example's work small; a `run` takes at most 400 steps."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["advection", "buckley", "vdp"]), st.integers(0, 1),
           _flag(1e-2, 1.0), _flag(0.0, 4.0))
    def test_run(self, fuzz_files, problem, method, dt, tf):
        paths, out = fuzz_files
        _exits_cleanly(["run", f"--problem={problem}", f"--method={paths[method]}",
                        f"--dt={dt}", f"--tf={tf}", f"--out={out}"])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["advection", "buckley", "vdp"]), st.integers(0, 1),
           st.sampled_from(["tvd", "positivity", "both"]), st.none() | _flag(1e-6, 1e-3),
           st.none() | _flag(1e-3, 0.25))
    def test_stepsearch(self, fuzz_files, problem, method, prop, resolution, tf):
        paths, out = fuzz_files
        _exits_cleanly(["stepsearch", f"--problem={problem}", f"--method={paths[method]}",
                        f"--property={prop}", f"--out={out}"]
                       + ([f"--resolution={resolution}"] if resolution is not None else [])
                       + ([f"--tf={tf}"] if tf is not None else []))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1), _flag(1e-3, 1e300))
    def test_convergence(self, fuzz_files, method, tf):
        paths, out = fuzz_files
        _exits_cleanly(["convergence", f"--method={paths[method]}", f"--tf={tf}",
                        f"--out={out}"])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-2, 20), st.integers(-2, 10))
    def test_table1(self, fuzz_files, smax, kmax):
        _exits_cleanly(["table1", f"--smax={smax}", f"--kmax={kmax}", f"--out={fuzz_files[1]}"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-2, 16), st.integers(-2, 16))
    def test_gen_so2(self, fuzz_files, stages, steps):
        _exits_cleanly(["gen-so2", f"--stages={stages}", f"--steps={steps}",
                        f"--out={fuzz_files[1]}"])
