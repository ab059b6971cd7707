"""Shared fixtures for the benchmark harnesses.

Each benchmark regenerates one paper figure/table.  Benchmarks run each
harness once (``benchmark.pedantic`` with a single round) because the point
is to produce the figure's data and record how long regeneration takes, not
to micro-benchmark hot loops.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

# Re-exported for the benchmark modules, so assert_perf and the smoke-sized
# workloads read the knob through one parser.  Shared CI runners cannot
# guarantee speedup ratios (noisy neighbours, 1-2 vCPUs), so the smoke run
# keeps exercising every benchmark code path and printing the observed
# numbers but only *warns* when a ratio misses its local threshold.
from repro.simulator.benchmarking import bench_smoke_enabled  # noqa: F401
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig

_BENCH_DIR = Path(__file__).resolve().parent


class BenchSmokeWarning(UserWarning):
    """A perf threshold was relaxed instead of enforced (smoke mode)."""


def assert_perf(condition: bool, message: str, *, relax: bool = False) -> None:
    """Performance assertion, downgraded to :class:`BenchSmokeWarning` under
    ``REPRO_BENCH_SMOKE=1`` (or when *relax* says the machine cannot
    demonstrate the ratio, e.g. a parallel speedup on a single-CPU box).
    Correctness assertions must stay plain ``assert`` -- only ratios and
    wall-clock thresholds belong here.
    """
    if condition:
        return
    if bench_smoke_enabled() or relax:
        warnings.warn(f"relaxed perf threshold: {message}", BenchSmokeWarning,
                      stacklevel=2)
        return
    raise AssertionError(message)


def pytest_collection_modifyitems(items):
    """Mark everything collected under benchmarks/ with ``bench`` so the
    tier-1 suite can deselect it wholesale (``-m "not bench"``)."""
    for item in items:
        try:
            path = Path(str(item.fspath)).resolve()
        except OSError:
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_trace():
    """The trace used by the characterization and evaluation benchmarks."""
    config = TraceGeneratorConfig(n_vms=800, n_days=14, seed=2024,
                                  n_subscriptions=60, servers_per_cluster=3)
    return TraceGenerator(config).generate()


@pytest.fixture(scope="session")
def packing_trace():
    """A higher-pressure trace for the packing/capacity benchmark (Figure 20)."""
    config = TraceGeneratorConfig(n_vms=1200, n_days=14, seed=11,
                                  n_subscriptions=80, servers_per_cluster=3)
    return TraceGenerator(config).generate()


def run_once(benchmark, func, *args, **kwargs):
    """Run a harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
