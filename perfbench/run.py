"""Benchmark for sspmsrk: optimizer searches, observed-step searches, certification.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 8 --trace 0

With ``--trace 0`` it times whole rounds of the workload's operations,
at least ``MIN_ROUNDS`` of them and for at least ``--seconds``, in
reference seconds (see ``refclock``), and prints the end-to-end metrics;
round j takes its inputs from (seed, j).  With ``--trace 1`` it runs
round 0 once untraced and once traced and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the run (environment, per-operation outputs and times) is written under
``perfbench/out/``.
"""

import os

#: BLAS/OpenMP thread pools are pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: set-up is timed this many times in separate interpreters; the median is reported
SETUP_SAMPLES = 5
#: every timed run takes the median of at least this many rounds
MIN_ROUNDS = 2
#: seconds between reference-loop samples taken during a timed operation
SAMPLE_INTERVAL_S = 0.5
PROBE_TIMEOUT_S = 60


def _require_source() -> None:
    if not (SRC / "sspmsrk" / "__init__.py").is_file():
        print(f"error: no sspmsrk sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


_require_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import refclock  # noqa: E402
import sspmsrk  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

if Path(sspmsrk.__file__).resolve().parent != (SRC / "sspmsrk").resolve():
    print(f"error: imported sspmsrk from {sspmsrk.__file__}, not from {SRC}", file=sys.stderr)
    raise SystemExit(2)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its operations are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, output {line!r})")
    return elapsed


def _attempt(call):
    try:
        return call(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


class Tally:
    """Operation outcomes over a run: attempts, exceptions and check findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops: dict[str, dict] = {}
        self.extra: dict = {}

    def run_round(self, ops, clock: refclock.RefClock, op_span=None):
        """Run every operation once, then check the outputs.

        Returns the round's summed wall time of the calls, in seconds and
        in reference seconds.
        """
        outputs = []
        wall_total = ref_total = 0.0
        for op in ops:
            call = op.call if op_span is None else op_span(op.call)
            self.attempted += 1
            (out, error), wall, scale = clock.measure(lambda: _attempt(call))
            wall_total += wall
            ref_total += wall * scale
            outputs.append((op, out, error, wall))
        for op, out, error, wall in outputs:
            rec = self.ops.setdefault(op.name, {"times_s": []})
            rec["times_s"].append(wall)
            if error is not None:
                self.failed += 1
                rec["error"] = error
                continue
            rec["output"] = op.describe(out)
            self.problems.extend(op.check(out))
        return wall_total, ref_total


def run_timed(name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    build = workloads.WORKLOADS[name]
    probe_clock = refclock.RefClock()
    setup = []
    for _ in range(SETUP_SAMPLES):
        elapsed, _, scale = probe_clock.measure(lambda: probe_setup(name, seed))
        setup.append(elapsed * scale)
    clock = refclock.RefClock(interval=SAMPLE_INTERVAL_S)
    tally = Tally()
    walls, rounds = [], []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begin < seconds:
        wall, ref = tally.run_round(build(seed, len(rounds)), clock)
        walls.append(wall)
        rounds.append(ref)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": statistics.median(rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    tally.extra = {"rounds_ref_s": rounds, "rounds_wall_s": walls, "setup_ref_s": setup,
                   "reference_loop_s": clock.reference_s,
                   "setup_reference_loop_s": probe_clock.reference_s}
    return tally, metrics


#: spans reported as per-layer metrics, named after the span unless renamed below
SPAN_METRICS = (
    "optimizer.constraint_residuals", "optimizer.least_squares",
    "orderlab.order_residual_vector", "orderlab.series_step_error", "orderlab.oracle_order",
    "series.eval_on_series", "series.flow_series",
    "methods.validate", "methods.to_spijker", "methods.canonical", "methods.ssp_coefficient",
    "theory.stability_polynomials", "theory.threshold_factor",
    "theory.radius_abs_monotonicity", "theory.shifted_basis",
    "pdelab.max_stable_step", "pdelab.run", "pdelab.msrk_step", "pdelab.startup",
    "pdelab.monitors", "pdelab.exact.vdp", "msrkio.read_method",
)
RENAMED = {"pdelab.exact.vdp": "pdelab.vdp_exact"}
#: span metrics reported without a call count (only their self time moves)
SELF_ONLY = {"optimizer.least_squares", "theory.radius_abs_monotonicity", "pdelab.startup",
             "pdelab.monitors", "msrkio.read_method"}
RHS_PROBLEMS = ("advection", "buckley", "vdp")
COUNTERS = ("optimizer.inner_solves", "optimizer.inner_nfev", "optimizer.inner_njev",
            "optimizer.inner_budget_exhausted")


def per_layer_metrics(spans: tracer.Spans, overhead_s: float) -> dict:
    summary = spans.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in SPAN_METRICS:
        metric = RENAMED.get(span, span)
        calls, self_s = summary.get(span, (0, 0.0))
        if metric not in SELF_ONLY:
            put(f"{metric}.calls", calls, "count")
        put(f"{metric}.self_s", self_s, "s")
    for problem in RHS_PROBLEMS:
        _, self_s = summary.get(f"pdelab.rhs.{problem}", (0, 0.0))
        put(f"pdelab.rhs.{problem}.states", spans.counters[f"pdelab.rhs.{problem}.states"], "count")
        put(f"pdelab.rhs.{problem}.self_s", self_s, "s")
    for counter in COUNTERS:
        put(counter, spans.counters[counter], "count")
    solves = spans.counters["optimizer.inner_solves"]
    feasible = spans.counters["optimizer.feasible_solves"]
    put("optimizer.feasible_solve_ratio", feasible / solves if solves else 0.0, "ratio")
    for layer in tracer.LAYERS:
        total = sum(st for span, (_, st) in summary.items() if span.startswith(f"{layer}."))
        put(f"layer.{layer}.self_s", total, "s")
    put("trace.overhead_s", overhead_s, "s")
    return metrics


def run_traced(name: str, seed: int) -> tuple[Tally, dict, tracer.Spans]:
    """One untraced round, then set-up and one round with every layer traced."""
    tally = Tally()
    clock = refclock.RefClock()
    build = workloads.WORKLOADS[name]
    plain_s, plain_ref = tally.run_round(build(seed, 0), clock)
    spans = tracer.Spans()
    instrumentation = tracer.Instrumentation(spans, feas_tol=sspmsrk.optimizer.SearchSpec.feas_tol)
    instrumentation.install()
    try:
        ops = build(seed, 0)
        traced_s, traced_ref = tally.run_round(
            ops, clock, op_span=lambda call: spans.wrap("bench.op", call))
    finally:
        instrumentation.uninstall()
    tally.extra = {"untraced_round_s": plain_s, "traced_round_s": traced_s,
                   "untraced_round_ref_s": plain_ref, "traced_round_ref_s": traced_ref,
                   "spans": len(spans)}
    return tally, per_layer_metrics(spans, traced_ref - plain_ref), spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload's operations, print 'ready' and exit")
    args = parser.parse_args(argv)

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, 0)
        print("ready", flush=True)
        return 0

    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, spans = run_traced(args.workload, args.seed)
        spans.dump(stem.with_suffix(".spans.npz"))
    else:
        tally, metrics = run_timed(args.workload, args.seed, args.seconds)

    correct = not tally.problems
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "problems": tally.problems, "run": tally.extra, "operations": tally.ops}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
