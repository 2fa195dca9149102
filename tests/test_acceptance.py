"""Acceptance suite: the shipped claims, each reported as one line.

Every test verifies one headline property of the package at its stated
tolerance and records a PASS/FAIL line that is echoed in the terminal
summary.  The optimizer searches run once per session with a fixed seed
and a multistart budget of 20.
"""

import numpy as np
import pytest

from sspmsrk.methods import ssp_coefficient, ssprk33, to_spijker, validate
from sspmsrk.optimizer import SearchFailure, SearchSpec, maximize_ssp, warm_start_ladder
from sspmsrk.orderlab import convergence_order, oracle_order, stage_order
from sspmsrk.pdelab import (
    _holds,
    advection_upwind,
    buckley_leverett,
    max_stable_step,
    vdp_convergence_study,
)
from sspmsrk.theory import gen_second_order, r_sk2

# published effective SSP coefficients r_sk2(s, k) / s, five decimals
TABLE1 = {
    (2, 2): 0.70711, (2, 3): 0.80902, (2, 4): 0.86038, (2, 5): 0.89039,
    (3, 2): 0.81650, (3, 3): 0.87915, (3, 4): 0.91068, (3, 5): 0.92934,
    (4, 2): 0.86603, (4, 3): 0.91144, (4, 4): 0.93426, (4, 5): 0.94782,
    (5, 2): 0.89443, (5, 3): 0.93007, (5, 4): 0.94797, (5, 5): 0.95863,
    (6, 2): 0.91287, (6, 3): 0.94222, (6, 4): 0.95694, (6, 5): 0.96573,
    (7, 2): 0.92582, (7, 3): 0.95076, (7, 4): 0.96327, (7, 5): 0.97074,
    (8, 2): 0.93541, (8, 3): 0.95711, (8, 4): 0.96798, (8, 5): 0.97448,
}

# optimizer desk-scale targets: published C_eff minus the allowed slack
OPT_TARGETS = {
    (2, 2, 3): 0.36603 - 1e-3,
    (3, 2, 3): 0.55019 - 1e-3,
    (2, 3, 4): 0.24767 - 1e-2,
}


def _record(request, criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    request.config._acceptance_lines.append(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


@pytest.fixture(scope="session")
def so2_grid():
    return {(s, k): gen_second_order(s, k)
            for s in range(2, 9) for k in range(2, 6)}


@pytest.fixture(scope="session")
def optimized():
    """Searches with multistart 20 and a fixed seed; run once per session."""
    found = {}
    results = {}
    for s, k, p in [(2, 2, 3), (3, 2, 3), (2, 3, 4)]:
        spec = SearchSpec(s=s, k=k, p=p, starts=20, seed=123, r_tol=1e-4,
                          warm_starts=warm_start_ladder(s, k, p, found))
        res = maximize_ssp(spec)
        found[(s, k, p)] = res.method
        results[(s, k, p)] = res
    return results


@pytest.fixture(scope="session")
def shipped(so2_grid, optimized):
    methods = [ssprk33()]
    methods.extend(so2_grid.values())
    methods.extend(res.method for res in optimized.values())
    return methods


@pytest.fixture(scope="session")
def problems():
    return {"advection": advection_upwind(), "buckley": buckley_leverett()}


@pytest.fixture(scope="session")
def stepsearch_results(shipped, problems):
    """max_stable_step, at its default horizon and start-up, for every
    shipped method on both PDE problems."""
    return {(pname, method.name, prop): max_stable_step(problem, method, prop)
            for pname, problem in problems.items()
            for method in shipped
            for prop in ("tvd", "positivity")}


def test_criterion_1_table1_formula(request):
    worst = max(abs(r_sk2(s, k) / s - v) for (s, k), v in TABLE1.items())
    _record(request, "1 second-order C_eff table", worst < 5e-6,
            f"28 entries, max deviation {worst:.2e}")


def test_criterion_2_so2_family(request, so2_grid):
    worst = 0.0
    orders_ok = True
    for (s, k), m in so2_grid.items():
        worst = max(worst, abs(ssp_coefficient(to_spijker(m)) - r_sk2(s, k)))
        if oracle_order(m, pmax=3) != 2:
            orders_ok = False
    _record(request, "2 closed-form family attains the optimum",
            worst <= 1e-8 and orders_ok,
            f"max |C - r_sk2| = {worst:.2e}, all oracle orders 2: {orders_ok}")


def test_criterion_3_ssprk33_anchor(request):
    C = ssp_coefficient(to_spijker(ssprk33()))
    p = oracle_order(ssprk33(), pmax=5)
    _record(request, "3 SSPRK(3,3) anchor",
            abs(C - 1.0) <= 1e-9 and p == 3, f"C = {C:.10f}, oracle order {p}")


def test_criterion_4_optimizer_targets(request, optimized):
    ok = True
    details = []
    for key, target in OPT_TARGETS.items():
        res = optimized[key]
        good = res.Ceff >= target and res.certified
        ok = ok and good
        details.append(f"{key}: C_eff {res.Ceff:.5f} (>= {target:.5f})"
                       + ("" if res.certified else " UNCERTIFIED"))
    try:
        maximize_ssp(SearchSpec(s=2, k=2, p=4, starts=20, seed=123, r_tol=1e-4,
                                warm_starts=warm_start_ladder(2, 2, 4)))
        ok = False
        details.append("(2,2,4): unexpectedly feasible")
    except SearchFailure:
        details.append("(2,2,4): infeasible as expected")
    _record(request, "4 optimizer desk-scale targets", ok, "; ".join(details))


def _bl_strict_tvd_factor():
    """Ratio of the certified to the nominal forward-Euler TVD bound.

    The nominal dt_fe of the limited scheme assumes max |f'| = 2; the
    actual maximum is slightly larger, so the uniform TVD bound carries
    the factor 2 / max |f'|.  Positivity is not affected.
    """
    a = 1.0 / 3.0
    u = np.linspace(0.0, 1.0, 400001)
    f = u**2 / (u**2 + a * (1.0 - u) ** 2)
    return 2.0 / float(np.max(np.gradient(f, u)))


def test_criterion_5_ssp_guarantee(request, shipped, problems, stepsearch_results):
    ok = True
    worst = ""
    bl_factor = _bl_strict_tvd_factor()
    for pname, problem in problems.items():
        tvd_factor = bl_factor if pname == "buckley" else 1.0
        for method in shipped:
            C = ssp_coefficient(to_spijker(method))
            dt = 0.999 * C * tvd_factor * problem.dt_fe
            tf = max(0.125, 12.0 * method.k * dt)
            if not all(_holds(problem, method, ("tvd", "positivity"), dt, tf)):
                ok = False
                worst = f"guarantee broken: {method.name} on {pname}"
            for prop in ("tvd", "positivity"):
                res = stepsearch_results[(pname, method.name, prop)]
                bound = res.theoretical * (tvd_factor if prop == "tvd" else 1.0)
                if res.dt_max < bound - res.resolution - 1e-12:
                    ok = False
                    worst = (f"observed {prop} step below theory: "
                             f"{method.name} on {pname}")
    _record(request, "5 SSP guarantee on both PDE problems", ok,
            worst or f"{len(shipped)} methods, both properties")


def test_criterion_6_observed_tvd_step(request, stepsearch_results):
    res = stepsearch_results[("advection", "SSPRK(3,3)", "tvd")]
    _record(request, "6 observed SSPRK(3,3) TVD step",
            abs(res.normalized - 1.000) <= 0.02,
            f"dt_max/dx = {res.normalized:.4f}")


def test_criterion_7_positivity_dominates_tvd(request, shipped, stepsearch_results):
    ok = True
    for method in shipped:
        tvd = stepsearch_results[("buckley", method.name, "tvd")]
        pos = stepsearch_results[("buckley", method.name, "positivity")]
        if pos.dt_max < tvd.dt_max - pos.resolution:
            ok = False
    _record(request, "7 positivity step >= TVD step", ok,
            f"{len(shipped)} methods on the limited scheme")


def test_criterion_8_vdp_convergence(request, optimized):
    cases = [(gen_second_order(2, 2), 2), (gen_second_order(3, 3), 2)]
    cases.extend((optimized[key].method, key[2]) for key in OPT_TARGETS)
    ok = True
    details = []
    for method, p in cases:
        slope = convergence_order(vdp_convergence_study(method))
        details.append(f"{method.name}: {slope:.2f}")
        if abs(slope - p) > 0.3:
            ok = False
    _record(request, "8 van der Pol convergence slopes", ok, ", ".join(details))


def test_criterion_9_theory_invariants(request, shipped):
    ok = True
    worst = ""
    for method in shipped:
        sp = to_spijker(method)
        C = ssp_coefficient(sp)
        if not validate(method).ok:
            ok, worst = False, f"{method.name} invalid"
        if C > method.s + 1e-8:
            ok, worst = False, f"{method.name} violates C <= s"
        p = method.claimed_order
        if p >= 2 and method.k >= 2 and C > r_sk2(method.s, method.k) + 1e-8:
            ok, worst = False, f"{method.name} violates C <= r_sk2"
        if C > 1e-8 and stage_order(method) < (p - 1) // 2:
            ok, worst = False, f"{method.name} violates the stage-order bound"
        from sspmsrk.methods import canonical

        for r in np.linspace(0.0, C, 25):
            cf = canonical(sp, r)
            if min(cf.P.min(), cf.R.min()) < -1e-10:
                ok, worst = False, f"{method.name} infeasible inside [0, C]"
                break
    _record(request, "9 theory invariant suite", ok,
            worst or f"{len(shipped)} methods checked")
