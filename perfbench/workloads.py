"""The benchmark's three workloads: their inputs, operations and output checks.

Every operation calls the library through its module (``optimizer.maximize_ssp``,
not a name imported once), so the traced run sees the wrappers it installs.
An operation returns its output; its check returns a list of problems,
empty when the output is correct.  Checks compare against ``checkers``,
which never calls into the library.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checkers
from sspmsrk import methods, msrkio, optimizer, orderlab, pdelab, theory

METHOD_DIR = Path(__file__).resolve().parent / "methods"

#: optimized method files, written by ``regenerate_methods.sh``
OPTIMIZED_FILES = ("opt_2_2_3.msrk", "opt_2_3_4.msrk", "opt_3_2_3.msrk")

#: published effective SSP coefficients and the slack the acceptance suite allows
SEARCH_TARGETS = {(2, 2, 3): (0.36603, 1e-3), (2, 3, 4): (0.24767, 1e-2)}
INFEASIBLE_TARGET = (2, 2, 4)
SEARCH_STARTS = 20
SEARCH_R_TOL = 1e-3
#: root of the solver seeds, as the acceptance suite's searches use seed 123
SEARCH_SEED = 123

STEPSEARCH_SO2 = ((2, 2), (3, 2), (3, 3), (4, 3))
CERTIFY_SO2 = tuple((s, k) for s in range(2, 9) for k in range(2, 6))
#: methods whose certification includes the van der Pol convergence study
CONVERGENCE_SUBSET = ("SO2(3,3)", "OPT(2,2,3)", "OPT(2,3,4)")

CANONICAL_SLACK = 1e-10
MATCH_TOL = 1e-8
SLOPE_TOL = 0.3


@dataclass(frozen=True)
class Op:
    """One operation: ``call()`` is timed, ``check(output)`` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    describe: Callable[[object], dict]


def derive_seed(seed: int, *key: int) -> int:
    """A child seed in [0, 2**31) for one input, stable for a given workload seed and key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0]) % 2**31


def read_optimized() -> list:
    return [msrkio.read_method(METHOD_DIR / name) for name in OPTIMIZED_FILES]


def reference_C(method) -> float:
    """C from the closed form for SO2, 1 for SSPRK(3,3), else the benchmark's bisection."""
    if method.name.startswith("SO2("):
        return checkers.r_sk2(method.s, method.k)
    if method.name == "SSPRK(3,3)":
        return 1.0
    return checkers.ssp_bisect(method)


# -- search ------------------------------------------------------------------


def _check_search(s, k, p, published, slack):
    def check(res) -> list[str]:
        if not isinstance(res, optimizer.SearchResult):
            return [f"({s},{k},{p}): no result ({res!r})"]
        out = []
        if not res.certified:
            out.append("not certified")
        if res.Ceff < published - slack:
            out.append(f"C_eff {res.Ceff:.6f} < {published} - {slack}")
        if res.C > s + MATCH_TOL:
            out.append(f"C {res.C:.9f} > s")
        if res.C > checkers.r_sk2(s, k) + MATCH_TOL:
            out.append(f"C {res.C:.9f} > r_sk2 {checkers.r_sk2(s, k):.9f}")
        S, T = checkers.spijker_matrices(res.method)
        low = checkers.canonical_min(S, T, res.C)
        if low < -CANONICAL_SLACK:
            out.append(f"canonical form at C has entry {low:.3e}")
        own = checkers.ssp_bisect(res.method)
        if abs(own - res.C) > MATCH_TOL:
            out.append(f"C {res.C:.12f} != independent bisection {own:.12f}")
        return [f"({s},{k},{p}): {msg}" for msg in out]

    return check


def _describe_search(res) -> dict:
    if isinstance(res, optimizer.SearchResult):
        return {"C_eff": res.Ceff, "certified": res.certified,
                "solves": len(res.history), "nfev": int(sum(h[3] for h in res.history))}
    return {"outcome": type(res).__name__}


def _search_call(spec, expect_failure):
    def call():
        try:
            return optimizer.maximize_ssp(spec)
        except optimizer.SearchFailure as exc:
            if not expect_failure:
                raise
            return exc

    return call


def _check_infeasible(res) -> list[str]:
    if isinstance(res, optimizer.SearchFailure):
        return []
    return [f"{INFEASIBLE_TARGET}: expected SearchFailure, got {type(res).__name__}"]


def _spec(round_index, s, k, p):
    return optimizer.SearchSpec(
        s=s, k=k, p=p, starts=SEARCH_STARTS, seed=derive_seed(SEARCH_SEED, round_index, s, k, p),
        r_tol=SEARCH_R_TOL, warm_starts=optimizer.warm_start_ladder(s, k, p),
    )


def search_ops(seed: int, round_index: int) -> list[Op]:
    """The three searches of one round.

    The solver seeds follow the round index, not the workload ``seed``:
    the cost of one search moves by a factor of two with its solver seed,
    which no run of a few rounds can average away (see README).
    """
    ops = [
        Op("search({},{},{})".format(*target),
           _search_call(_spec(round_index, *target), False),
           _check_search(*target, published, slack), _describe_search)
        for target, (published, slack) in SEARCH_TARGETS.items()
    ]
    ops.append(Op("search({},{},{})".format(*INFEASIBLE_TARGET),
                  _search_call(_spec(round_index, *INFEASIBLE_TARGET), True),
                  _check_infeasible, _describe_search))
    return ops


# -- stepsearch --------------------------------------------------------------


def shifted(problem, shift: int):
    """The problem with its initial data (and exact solution) rotated by ``shift`` cells.

    All three problems are periodic, so the observed steps do not depend
    on the shift while the states the program sees do.
    """
    changes = {"u0": np.roll(problem.u0, shift)}
    if problem.exact is not None:
        exact = problem.exact
        changes["exact"] = lambda t: np.roll(exact(t), shift)
    return dataclasses.replace(problem, **changes)


def _check_step(method, problem, prop, C, factor):
    def check(res) -> list[str]:
        out = []
        bound = C * problem.dt_fe * factor
        if res.dt_max < bound - res.resolution - 1e-12:
            out.append(f"dt_max {res.dt_max:.6g} < C dt_fe factor {bound:.6g} - resolution")
        if method.name == "SSPRK(3,3)" and problem.name == "advection" and prop == "tvd":
            if abs(res.dt_max / problem.dx - 1.0) > 0.02:
                out.append(f"SSPRK(3,3) TVD step {res.dt_max / problem.dx:.4f} dx not within 0.02 of dx")
        return [f"{method.name} {problem.name} {prop}: {msg}" for msg in out]

    return check


def _describe_step(res) -> dict:
    return {"dt_max": res.dt_max, "normalized": res.normalized}


def stepsearch_ops(seed: int, round_index: int) -> list[Op]:
    rng = np.random.default_rng(derive_seed(seed, round_index, 1))
    problems = [pdelab.advection_upwind(), pdelab.buckley_leverett()]
    problems = [shifted(pr, int(rng.integers(pr.dim))) for pr in problems]
    library = [methods.ssprk33()]
    library += [theory.gen_second_order(s, k) for s, k in STEPSEARCH_SO2]
    library += read_optimized()
    bl_factor = checkers.bl_tvd_factor()
    ops = []
    for problem in problems:
        mode = "exact" if problem.exact is not None else "rk3_substeps"
        for method in library:
            C = reference_C(method)
            tf = max(0.125, 12.0 * method.k * max(C, 1.0) * problem.dt_fe)
            for prop in ("tvd", "positivity"):
                factor = bl_factor if (problem.name == "buckley" and prop == "tvd") else 1.0
                ops.append(Op(
                    f"stepsearch {problem.name} {method.name} {prop}",
                    lambda problem=problem, method=method, prop=prop, tf=tf, mode=mode:
                        pdelab.max_stable_step(problem, method, prop, tf=tf, startup_mode=mode),
                    _check_step(method, problem, prop, C, factor),
                    _describe_step,
                ))
    return ops


# -- certify -----------------------------------------------------------------


def _certify(method, oracle_seed: int, study: bool) -> dict:
    """The ``analyze`` pass on one method, plus its convergence study if ``study``."""
    out = {"valid": methods.validate(method).ok}
    sp = methods.to_spijker(method)
    out["C"] = methods.ssp_coefficient(sp)
    pols = theory.stability_polynomials(sp)
    out["linear_order"] = theory.linear_order(pols)
    out["stage_order"] = orderlab.stage_order(method)
    pmax = min(12, max(out["linear_order"] + 1, method.claimed_order + 1))
    out["oracle_order"] = orderlab.oracle_order(method, pmax=pmax, seed=oracle_seed)
    out["threshold_factor"] = theory.threshold_factor(pols)
    if study:
        out["convergence"] = pdelab.vdp_convergence_study(method)
    return out


def _check_certify(method):
    def check(res) -> list[str]:
        s, k, p = method.s, method.k, method.claimed_order
        C = res["C"]
        out = []
        if not res["valid"]:
            out.append("invalid")
        own = checkers.ssp_bisect(method)
        if abs(C - own) > MATCH_TOL:
            out.append(f"C {C:.12f} != independent bisection {own:.12f}")
        if C > s + MATCH_TOL:
            out.append(f"C {C:.9f} > s")
        if p >= 2 and k >= 2 and C > checkers.r_sk2(s, k) + MATCH_TOL:
            out.append(f"C {C:.9f} > r_sk2")
        if C > MATCH_TOL and res["stage_order"] < (p - 1) // 2:
            out.append(f"stage order {res['stage_order']} < {(p - 1) // 2}")
        if method.name.startswith("SO2("):
            R = checkers.r_sk2(s, k)
            if abs(C - R) > MATCH_TOL or abs(res["threshold_factor"] - R) > MATCH_TOL:
                out.append(f"C {C:.12f} / threshold {res['threshold_factor']:.12f} != r_sk2 {R:.12f}")
            if res["oracle_order"] != 2:
                out.append(f"oracle order {res['oracle_order']} != 2")
        elif method.name == "SSPRK(3,3)":
            if abs(C - 1.0) > MATCH_TOL or res["oracle_order"] != 3:
                out.append(f"C {C:.12f}, oracle order {res['oracle_order']} (want 1, 3)")
        elif res["oracle_order"] < p:
            out.append(f"oracle order {res['oracle_order']} < claimed {p}")
        if "convergence" in res:
            slope = checkers.loglog_slope(res["convergence"])
            if abs(slope - p) > SLOPE_TOL:
                out.append(f"convergence slope {slope:.3f} not within {SLOPE_TOL} of {p}")
        return [f"{method.name}: {msg}" for msg in out]

    return check


def _describe_certify(res) -> dict:
    out = {key: res[key] for key in ("C", "oracle_order", "threshold_factor")}
    if "convergence" in res:
        out["slope"] = checkers.loglog_slope(res["convergence"])
    return out


def certify_ops(seed: int, round_index: int) -> list[Op]:
    library = [methods.ssprk33()]
    library += [theory.gen_second_order(s, k) for s, k in CERTIFY_SO2]
    library += read_optimized()
    oracle_seed = derive_seed(seed, round_index, 2)
    return [
        Op(f"certify {m.name}",
           lambda m=m: _certify(m, oracle_seed, m.name in CONVERGENCE_SUBSET),
           _check_certify(m), _describe_certify)
        for m in library
    ]


#: workload name -> builder of one round's operations from (seed, round index)
WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "search": search_ops,
    "stepsearch": stepsearch_ops,
    "certify": certify_ops,
}
