"""Spans around the public functions of each ``sspmsrk`` layer, for the traced run.

A span is (name, start, end, parent).  Spans are appended to flat arrays
in memory while the traced round runs and are written out when the run
ends.  A span's self time is its duration minus the part of it that its
child spans cover, so time spent in a wrapped callee is charged to the
callee and not to the caller.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: the package's modules; ``cli`` is a front end over the same calls
LAYERS = ("optimizer", "orderlab", "series", "methods", "theory", "pdelab", "msrkio")

#: public functions whose spans are grouped under another name
ALIASES = {
    "pdelab.tv_seminorm": "pdelab.monitors",
    "pdelab.positivity_min": "pdelab.monitors",
}

#: problem constructors whose products get traced rhs and exact callbacks
PROBLEM_CONSTRUCTORS = ("vdp_problem", "advection_upwind", "buckley_leverett")


class Spans:
    """In-memory span store plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs on return."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        for nid, st in zip(self.name_id, selfs):
            name = self.names[nid]
            calls[name] += 1
            total[name] += st
        return {name: (calls[name], total[name]) for name in calls}

    def dump(self, path) -> None:
        """Write the spans as one compressed ``.npz`` (times relative to the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = float(start[0]) if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
        )


def self_times(start, end, parent) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so self time is never negative.
    """
    out = [e - s for s, e in zip(start, end)]
    children: defaultdict = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        ps, pe = start[p], end[p]
        intervals = sorted((max(start[c], ps), min(end[c], pe)) for c in kids)
        covered = 0.0
        cur_s, cur_e = intervals[0]
        for s, e in intervals[1:]:
            if s > cur_e:
                covered += max(0.0, cur_e - cur_s)
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        covered += max(0.0, cur_e - cur_s)
        out[p] -= covered
    return out


def _batch_size(u) -> int:
    """States in one rhs argument: the product of all but the last axis."""
    return math.prod(getattr(u, "shape", (0,))[:-1])


class Instrumentation:
    """Rebinds the public functions of every layer to span-recording wrappers.

    Each wrapper replaces the original under every ``sspmsrk`` module
    attribute that is bound to it (``canonical`` lives in both
    ``methods`` and ``optimizer``, for example), so calls made through
    any module are seen.  ``uninstall`` restores every binding.
    """

    def __init__(self, spans: Spans, feas_tol: float):
        self.spans = spans
        self.feas_tol = feas_tol
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "sspmsrk" or modname.startswith("sspmsrk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        seen: set[int] = set()
        for layer in LAYERS:
            module = importlib.import_module(f"sspmsrk.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or id(fn) in seen:
                    continue
                seen.add(id(fn))
                name = f"{layer}.{attr}"
                if layer == "pdelab" and attr in PROBLEM_CONSTRUCTORS:
                    wrapper = self._problem_constructor(name, fn)
                else:
                    wrapper = self.spans.wrap(ALIASES.get(name, name), fn)
                self._rebind(fn, wrapper)

        series = sys.modules["sspmsrk.series"]
        cls = getattr(series, "PolynomialODE", None)
        if cls is not None and "eval_on_series" in vars(cls):
            original = vars(cls)["eval_on_series"]
            self._saved.append((cls, "eval_on_series", original))
            cls.eval_on_series = self.spans.wrap("series.eval_on_series", original)

        optimizer = sys.modules["sspmsrk.optimizer"]
        if hasattr(optimizer, "least_squares"):
            original = optimizer.least_squares
            self._saved.append((optimizer, "least_squares", original))
            optimizer.least_squares = self.spans.wrap(
                "optimizer.least_squares", original, self._count_solve
            )

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _count_solve(self, args, sol) -> None:
        c = self.spans.counters
        c["optimizer.inner_solves"] += 1
        c["optimizer.inner_nfev"] += int(sol.nfev)
        c["optimizer.inner_njev"] += int(sol.njev or 0)
        c["optimizer.inner_budget_exhausted"] += int(sol.status == 0)
        c["optimizer.feasible_solves"] += int(2.0 * sol.cost <= self.feas_tol**2)

    def _problem_constructor(self, name, fn):
        """Trace the constructor, and the rhs and exact callbacks of what it builds."""
        traced_ctor = self.spans.wrap(name, fn)
        spans = self.spans

        def build(*args, **kwargs):
            problem = traced_ctor(*args, **kwargs)
            key = f"pdelab.rhs.{problem.name}.states"

            def count_states(call_args, _result):
                spans.counters[key] += _batch_size(call_args[0])

            changes = {"rhs": spans.wrap(f"pdelab.rhs.{problem.name}", problem.rhs, count_states)}
            if problem.exact is not None:
                changes["exact"] = spans.wrap(f"pdelab.exact.{problem.name}", problem.exact)
            return dataclasses.replace(problem, **changes)

        build.__name__ = fn.__name__
        build.__wrapped__ = fn
        return build
