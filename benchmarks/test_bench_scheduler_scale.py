"""Placement throughput of the vectorized scheduler at production scale.

Two measurements:

* the single-size benchmark packs >=5000 VM plans onto a 200-server
  cluster with the matrix-form :class:`ClusterScheduler` and compares
  plans/second against the seed per-server loop
  (:class:`ReferenceLoopScheduler`);
* the scaling curve (PR 7, extended to 100k servers in PR 9) sweeps fleet
  sizes and compares the incremental scheduler (tiered candidate index at
  the largest sizes) against the dense PR 6 baseline
  (``incremental=False``), both driven by sequential ``place``, asserting
  >=25x at the largest size -- the regime the tiered index exists for.

References are timed on a prefix of the same arrival sequence -- their
per-plan cost is dominated by the full server scan, which is independent
of cluster fill, so a prefix is representative -- to keep the suite's
wall-clock time bounded.
"""

import time

from conftest import assert_perf, bench_smoke_enabled, run_once

from repro.core.scheduler import ClusterScheduler, ReferenceLoopScheduler
from repro.simulator.benchmarking import measure_scheduler_scaling
from repro.simulator.synthetic import (
    BENCH_WINDOWS as WINDOWS,
    SCALE_BENCH_CLUSTER as SCALE_CLUSTER,
    build_placement_bench_plans,
)

REFERENCE_PLANS = 300


def _place_all(plans):
    scheduler = ClusterScheduler(SCALE_CLUSTER, WINDOWS)
    start = time.perf_counter()
    for plan in plans:
        scheduler.place(plan)
    elapsed = time.perf_counter() - start
    return scheduler, elapsed


def test_vectorized_scheduler_scale_throughput(benchmark):
    # The smoke knob shrinks the workload so shared CI runners finish the
    # bench job; the correctness asserts below hold at either size.
    plans = build_placement_bench_plans(smoke=bench_smoke_enabled())
    n_plans = len(plans)
    assert SCALE_CLUSTER.server_count >= 200

    scheduler, vectorized_seconds = run_once(benchmark, _place_all, plans)
    vectorized_rate = n_plans / vectorized_seconds

    reference = ReferenceLoopScheduler(SCALE_CLUSTER, WINDOWS)
    start = time.perf_counter()
    for plan in plans[:REFERENCE_PLANS]:
        reference.place(plan)
    reference_rate = REFERENCE_PLANS / (time.perf_counter() - start)

    speedup = vectorized_rate / reference_rate
    print(f"\nScheduler scale ({SCALE_CLUSTER.server_count} servers, {n_plans} plans):")
    print(f"  vectorized {vectorized_rate:8.0f} plans/s "
          f"({scheduler.accepted_count()} accepted, {scheduler.rejected_count()} rejected)")
    print(f"  seed loop  {reference_rate:8.0f} plans/s (prefix of {REFERENCE_PLANS})")
    print(f"  speedup    {speedup:8.1f}x")

    # The workload must genuinely fill the cluster, not bounce off a wall.
    assert scheduler.accepted_count() >= 1000
    assert_perf(speedup >= 5.0,
                f"expected >=5x placement speedup over the seed loop, "
                f"got {speedup:.1f}x")


def test_scheduler_scaling_curve(benchmark):
    smoke = bench_smoke_enabled()
    result = run_once(benchmark, measure_scheduler_scaling, smoke=smoke)

    print("\nScheduler scaling curve (incremental place vs dense PR 6):")
    for point in result["curve"]:
        extrapolated = (" (extrapolated from "
                        f"{point['dense_prefix_plans']}-plan prefix)"
                        if point["dense_extrapolated"] else "")
        print(f"  {point['n_servers']:6d} servers: "
              f"incremental {point['incremental_plans_per_s']:8.0f} plans/s, "
              f"dense {point['dense_plans_per_s']:8.0f} plans/s{extrapolated}, "
              f"speedup {point['speedup']:6.2f}x "
              f"({point['accepted']} accepted, {point['rejected']} rejected, "
              f"peak RSS {point['ru_maxrss_kb']} kB)")

    # The harness already asserted decision equality on every prefix; the
    # perf gate is the acceptance criterion: >=25x at the largest size --
    # the 100k-server regime the tiered candidate index exists for.
    assert all(point["decisions_identical"] for point in result["curve"])
    assert_perf(result["largest_speedup"] >= 25.0,
                f"expected >=25x incremental speedup at "
                f"{result['largest_size']} servers, "
                f"got {result['largest_speedup']:.1f}x")
