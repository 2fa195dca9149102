"""The library API that the benchmark in ``perfbench/`` calls.

``perfbench/`` has its own tests, which the default test run does not
collect; this module builds one round of each workload and runs four
cheap operations, so a renamed or removed name fails here, and so does a
broken start-up on either step-search problem.  It also checks that the
tracer's solve counts agree with a search's history.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from conftest import _benchmark_search_234  # noqa: E402
from sspmsrk.optimizer import SearchSpec, maximize_ssp  # noqa: E402


def _run(op):
    return op.check(op.call())


def test_round_zero_builds_and_runs():
    ops = {name: {op.name: op for op in build(1, 0)} for name, build in workloads.WORKLOADS.items()}
    assert {name: len(o) for name, o in ops.items()} == {"search": 3, "stepsearch": 32, "certify": 32}
    assert _run(ops["certify"]["certify SSPRK(3,3)"]) == []
    # in the convergence subset: the benchmark's own slope fit checks the van der Pol study
    assert "SO2(3,3)" in workloads.CONVERGENCE_SUBSET
    assert _run(ops["certify"]["certify SO2(3,3)"]) == []
    assert _run(ops["stepsearch"]["stepsearch advection SSPRK(3,3) tvd"]) == []
    # k = 3, p = 4: Buckley-Leverett starts with several SSPRK(3,3) substeps per interval
    assert _run(ops["stepsearch"]["stepsearch buckley OPT(2,3,4) tvd"]) == []


def test_feasibility_tolerance_is_a_class_attribute():
    assert SearchSpec.feas_tol == 1e-10


def test_the_tracer_counts_every_inner_solve():
    # every solve, accepted or not, ends in the traced driver
    spans = tracer.Spans()
    instrumentation = tracer.Instrumentation(spans, feas_tol=SearchSpec.feas_tol)
    instrumentation.install()
    try:
        res = maximize_ssp(_benchmark_search_234())
    finally:
        instrumentation.uninstall()
    counts = {key: spans.counters[f"optimizer.inner_{key}"]
              for key in ("solves", "nfev", "njev", "budget_exhausted")}
    assert counts == {"solves": len(res.history), "nfev": sum(row[3] for row in res.history),
                      "njev": sum(row[4] for row in res.history), "budget_exhausted": 0}
