import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from sspmsrk.methods import MSRKMethod, SpijkerForm, ssprk33, to_spijker
from sspmsrk.msrkio import read_method
from sspmsrk.optimizer import SearchSpec, warm_start_ladder
from sspmsrk.theory import gen_second_order

BENCH_METHODS = Path(__file__).resolve().parents[1] / "perfbench" / "methods"


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def count_builds(monkeypatch, cls, name) -> list:
    """Replace the cached property ``cls.name`` by one that appends each
    object it builds the value for to the returned list."""
    builds = []
    build = vars(cls)[name].func

    def counting(self):
        builds.append(self)
        return build(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return builds


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns: -0.0 differs from 0.0 and NaNs compare."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _benchmark_search_234():
    """The (2,3,4) search of the benchmark's round 0, whose solver seed is
    derived from 123, the round and the target."""
    seed = int(np.random.SeedSequence([123, 0, 2, 3, 4]).generate_state(1)[0]) % 2**31
    return SearchSpec(s=2, k=3, p=4, starts=20, seed=seed, r_tol=1e-3,
                      warm_starts=warm_start_ladder(2, 3, 4))


def random_valid_method(rng, s, k):
    """A structurally valid method with nonnegative random coefficients."""
    D = np.zeros((s, k))
    D[0, -1] = 1.0
    if s > 1:
        raw = rng.uniform(0.1, 1.0, size=(s - 1, k))
        D[1:] = raw / raw.sum(axis=1, keepdims=True)
    Ahat = np.zeros((s, k - 1))
    if s > 1 and k > 1:
        Ahat[1:] = rng.uniform(0.0, 0.5, size=(s - 1, k - 1))
    A = np.tril(rng.uniform(0.0, 0.5, size=(s, s)), -1)
    A[0] = 0.0
    raw = rng.uniform(0.1, 1.0, size=k)
    theta = raw / raw.sum()
    bhat = rng.uniform(0.0, 0.5, size=k - 1)
    b = rng.uniform(0.0, 0.5, size=s)
    return MSRKMethod(s=s, k=k, D=D, Ahat=Ahat, A=A, theta=theta, bhat=bhat, b=b)


def method_library():
    """SSPRK(3,3), the 28 SO2(s,k) and the benchmark's optimized methods."""
    library = [ssprk33()] + [gen_second_order(s, k) for s in range(2, 9) for k in range(2, 6)]
    library += [read_method(path) for path in sorted(BENCH_METHODS.glob("*.msrk"))]
    assert len(library) == 32
    return library


def stack_forms(methods):
    """The Spijker forms of methods of one shape, stacked along a new first axis."""
    forms = [to_spijker(m) for m in methods]
    return SpijkerForm(ST=np.array([f.ST for f in forms]), k=forms[0].k, s=forms[0].s)


@st.composite
def method_shapes(draw):
    s = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    return s, k


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
