"""Command-line front end.

Subcommands: analyze, gen-so2, optimize, run, stepsearch, convergence,
table1.  All commands are deterministic given their flags; CSV output
uses '.' decimals and always carries a header row.

Exit codes: 0 success, 1 uncertified optimizer result, 2 usage error,
3 validation failure, 4 infeasible search, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import msrkio, pdelab
from .methods import MethodStructureError, ssp_coefficient, to_spijker, validate
from .optimizer import SearchFailure, SearchSpec, maximize_ssp, warm_start_ladder, write_search_log
from .orderlab import MAX_ORACLE_ORDER, convergence_order, oracle_order, stage_order
from .theory import (
    LINEAR_BOUND_TOL,
    MIN_POSITIVE_C,
    gen_second_order,
    linear_bound,
    linear_order,
    r_sk2,
    stability_polynomials,
    threshold_factor,
)

EXIT_OK = 0
EXIT_UNCERTIFIED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

_PROBLEMS = {
    "vdp": lambda: pdelab.vdp_problem(),
    "advection": lambda: pdelab.advection_upwind(),
    "buckley": lambda: pdelab.buckley_leverett(),
}


def cmd_analyze(args) -> int:
    method = msrkio.read_method(args.method_file)
    report = validate(method)
    print(f"name: {method.name}")
    print(f"s: {method.s}")
    print(f"k: {method.k}")
    print(f"valid: {'yes' if report.ok else 'no'}")
    for v in report.violations:
        print(f"violation: {v}")

    # overflowed values would give a wrong report, so overflow is a numerical failure
    with np.errstate(over="raise", invalid="raise"):
        if report.ok:
            sp = to_spijker(method)
            C = ssp_coefficient(sp)
        else:
            C = 0.0
            print("warning: method invalid; SSP coefficient reported as 0")
        print(f"C: {C:.9f}")
        print(f"C_eff: {C / method.s:.9f}")

        if report.ok:
            pols = stability_polynomials(sp)
            q = stage_order(method)
            lin = linear_order(pols)
            pmax = min(MAX_ORACLE_ORDER, max(lin, method.claimed_order) + 1)
            orc = oracle_order(method, pmax=pmax)
            thr = threshold_factor(pols)
            print(f"stage_order: {q}")
            print(f"linear_order: {lin}")
            print(f"oracle_order: {orc}")
            print("threshold_factor: " + ("inf" if math.isinf(thr) else f"{thr:.9f}"))
            if orc >= 1:
                print(f"bound_C_le_s: {'ok' if C <= method.s + 1e-8 else 'VIOLATED'}")
                R = linear_bound(method.s, method.k, orc)
                print(f"linear_bound: {R:.9f}")
                # R = 0 only says that the bound is below MIN_POSITIVE_C
                ok = C <= max(R, MIN_POSITIVE_C) + LINEAR_BOUND_TOL
                print(f"bound_C_le_R: {'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_gen_so2(args) -> int:
    method = gen_second_order(args.stages, args.steps)
    msrkio.write_method(method, args.out)
    print(f"wrote {method.name} to {args.out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    warm = warm_start_ladder(args.stages, args.steps, args.order)
    spec = SearchSpec(
        s=args.stages, k=args.steps, p=args.order,
        starts=args.starts, seed=args.seed, r_tol=args.r_tol,
        warm_starts=warm,
    )
    result = maximize_ssp(spec)
    msrkio.write_method(result.method, args.out)
    if args.log:
        write_search_log(result.history, args.log)
    print(f"C: {result.C:.9f}")
    print(f"C_eff: {result.Ceff:.9f}")
    print(f"linear_bound: {result.R:.9f}")
    print(f"gap: {result.R / args.stages - result.Ceff:.9f}")
    print(f"certified: {'yes' if result.certified else 'no'}")
    nfev = sum(h[3] for h in result.history)
    njev = sum(h[4] for h in result.history)
    print(f"inner solves: {len(result.history)}, nfev: {nfev}, njev: {njev}")
    print(f"wrote {result.method.name} to {args.out}")
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


def cmd_run(args) -> int:
    problem = _PROBLEMS[args.problem]()
    method = msrkio.read_method(args.method)
    record = pdelab.run(problem, method, args.dt, args.tf)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = sorted(record.monitors)
        writer.writerow(["t"] + names)
        for i, t in enumerate(record.times):
            writer.writerow([f"{t:.12g}"] + [f"{record.monitors[n][i]:.12g}" for n in names])
    if record.final_error is not None:
        print(f"final_error: {record.final_error:.6e}")
    print(f"wrote {len(record.times)} rows to {args.out}, the last at t = {record.times[-1]:.12g}")
    return EXIT_OK


def cmd_stepsearch(args) -> int:
    problem = _PROBLEMS[args.problem]()
    methods = [msrkio.read_method(path) for path in args.method]
    props = ["tvd", "positivity"] if args.property == "both" else [args.property]
    dx = problem.dx if problem.dx is not None else problem.dt_fe
    rows = []
    for method in methods:
        s = method.s
        results = {prop: pdelab.max_stable_step(problem, method, prop, args.resolution, args.tf)
                   for prop in props}
        theoretical = results[props[0]].theoretical / dx
        row = {
            "name": method.name,
            "method": f"({s},{method.k},{method.claimed_order})",
            "dt_tvd/dx": "",
            "dt_tvd/(s*dx)": "",
            "C*dt_fe/dx": f"{theoretical:.6f}",
            "Ceff*dt_fe/dx": f"{theoretical / s:.6f}",
            "dt_pos/dx": "",
            "dt_pos/(s*dx)": "",
        }
        for prop, res in results.items():
            key = "tvd" if prop == "tvd" else "pos"
            row[f"dt_{key}/dx"] = f"{res.normalized:.6f}"
            row[f"dt_{key}/(s*dx)"] = f"{res.normalized / s:.6f}"
            print(f"{method.name} {prop}: dt_max/dx = {res.normalized:.6f}")
            if res.horizon_limited:
                print(f"note: {method.name} {prop}: dt_max is the horizon's limit tf/k, "
                      "not the property's; a longer --tf finds it", file=sys.stderr)
        rows.append(row)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    methods = [msrkio.read_method(path) for path in args.method]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dt", "error"])
        for method in methods:
            pairs = pdelab.vdp_convergence_study(method, tf=args.tf)
            for dt, err in pairs:
                writer.writerow([method.name, f"{dt:.12g}", f"{err:.12e}"])
            print(f"{method.name} slope: {convergence_order(pairs):.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_table1(args) -> int:
    if not (2 <= args.smax <= 16 and 2 <= args.kmax <= 8):
        raise ValueError("table1 grid needs 2 <= smax <= 16 and 2 <= kmax <= 8")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s"] + [f"k={k}" for k in range(2, args.kmax + 1)])
        mismatches = 0
        for s in range(2, args.smax + 1):
            row = [str(s)]
            for k in range(2, args.kmax + 1):
                ceff = r_sk2(s, k) / s
                cell = f"{ceff:.5f}"
                if s <= 8 and k <= 5:
                    C = ssp_coefficient(to_spijker(gen_second_order(s, k)))
                    if abs(C - r_sk2(s, k)) > 1e-7:
                        cell += "!"
                        mismatches += 1
                row.append(cell)
            writer.writerow(row)
    print(f"wrote {args.out}")
    if mismatches:
        print(f"warning: {mismatches} generator/formula mismatches flagged with '!'")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspmsrk",
        description="Analyze, generate, optimize, and test SSP multistep Runge-Kutta methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report order and SSP properties of a method file")
    p.add_argument("method_file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gen-so2", help="write an optimal second-order method file")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_so2)

    p = sub.add_parser("optimize", help="search for a method maximizing the SSP coefficient")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="CSV search log path")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("run", help="integrate a problem and record monitors")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    p.add_argument("--method", required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("stepsearch", help="find the largest step preserving a property")
    p.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    p.add_argument("--method", required=True, nargs="+", metavar="FILE")
    p.add_argument("--property", default="both", choices=["tvd", "positivity", "both"])
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--tf", type=float, default=None,
                   help="default: a horizon scaled by k and the SSP coefficient")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stepsearch)

    p = sub.add_parser("convergence", help="step-refinement study with fitted slope on van der Pol")
    p.add_argument("--method", required=True, nargs="+", metavar="FILE")
    p.add_argument("--tf", type=float, default=4.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("table1", help="grid of optimal second-order effective coefficients")
    p.add_argument("--smax", type=int, default=8)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SearchFailure as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FloatingPointError, pdelab.RunAbortedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MethodStructureError, msrkio.MethodFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
