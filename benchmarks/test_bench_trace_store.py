"""Trace-store scale benchmarks: sweep footprint, filters, streaming replay.

Three claims, each against the object-based seed representation:

* a process-pool sweep worker receives the path of a staged on-disk store
  instead of unpickling a private multi-megabyte trace copy (>= 5x
  smaller per worker -- orders of magnitude smaller in practice);
* the columnar filters (``alive_at`` / ``arriving_in`` / ``long_running``)
  and the O(1) ``vm_by_id`` beat the seed's Python loops;
* an mmap-backed store replays end to end while staying under an in-RAM
  budget its utilization buffer exceeds (the streaming-trace ROADMAP item).

Workloads and measurement harnesses are shared with
``scripts/run_benchmarks.py`` via :mod:`repro.simulator.synthetic` and
:mod:`repro.simulator.benchmarking`, so the tracked numbers cannot drift
from these.
"""

import time

from conftest import assert_perf, bench_smoke_enabled, run_once

from repro.simulator.benchmarking import (
    measure_mmap_bounded_replay,
    measure_sweep_task_footprint,
)
from repro.simulator.synthetic import (
    generate_multiweek_trace,
    generate_store_bench_trace,
)
from repro.trace.store import TraceStore


def _time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def test_bench_sweep_worker_footprint(benchmark):
    """Staged-store sweep tasks are >= 5x smaller than pickled-trace tasks."""
    trace = generate_store_bench_trace(smoke=bench_smoke_enabled())
    outcome = run_once(benchmark, measure_sweep_task_footprint, trace)
    print(f"\nsweep task: pickled {outcome['pickled_task_bytes'] / 1e6:.1f} MB"
          f" vs staged {outcome['staged_task_bytes'] / 1e3:.1f} KB"
          f" ({outcome['footprint_reduction']:.0f}x);"
          f" unpickle {outcome['unpickle_seconds'] * 1e3:.1f} ms"
          f" vs open {outcome['open_seconds'] * 1e3:.1f} ms")
    # Byte counts are deterministic for a fixed workload: hard assertion.
    assert outcome["footprint_reduction"] >= 5.0, (
        "staged-store sweep tasks should be at least 5x smaller than "
        f"pickled-trace tasks, got {outcome['footprint_reduction']:.1f}x")
    # Wall-clock ratio is machine-dependent: relaxed under smoke.
    assert_perf(
        outcome["open_seconds"] * 2 <= outcome["unpickle_seconds"],
        "opening the staged store should be >= 2x faster than unpickling "
        f"the trace (open {outcome['open_seconds'] * 1e3:.1f} ms, "
        f"unpickle {outcome['unpickle_seconds'] * 1e3:.1f} ms)")


def test_bench_columnar_filters(benchmark):
    """Column predicates beat the seed's per-VM Python loops.

    Filter cost scales with the VM count, not the telemetry volume, so this
    benchmark uses a VM-dense trace (many short-lived VMs) rather than the
    telemetry-dense store workload.
    """
    smoke = bench_smoke_enabled()
    trace = generate_multiweek_trace(n_days=14, n_vms=2000 if smoke else 4000,
                                     n_subscriptions=80, servers_per_cluster=3)
    store_trace = TraceStore.from_trace(trace).as_trace()
    mid = trace.n_slots // 2

    def filters_obj():
        trace.alive_at(mid)
        trace.arriving_in(mid // 2, mid)
        trace.long_running()

    def filters_store():
        store_trace.alive_at(mid)
        store_trace.arriving_in(mid // 2, mid)
        store_trace.long_running()

    # Correctness before speed: both paths select the same VMs.
    assert ([vm.vm_id for vm in store_trace.alive_at(mid)]
            == [vm.vm_id for vm in trace.alive_at(mid)])
    assert ([vm.vm_id for vm in store_trace.long_running().vms]
            == [vm.vm_id for vm in trace.long_running().vms])

    object_seconds = _time(filters_obj)
    store_seconds = run_once(benchmark, lambda: _time(filters_store))
    speedup = object_seconds / max(store_seconds, 1e-9)

    lookup_id = trace.vms[len(trace.vms) // 2].vm_id
    linear_seconds = _time(
        lambda: next(vm for vm in trace.vms if vm.vm_id == lookup_id), repeats=20)
    indexed_seconds = _time(lambda: store_trace.vm_by_id(lookup_id), repeats=20)
    lookup_speedup = linear_seconds / max(indexed_seconds, 1e-9)

    print(f"\nfilters: object {object_seconds * 1e3:.2f} ms vs columnar "
          f"{store_seconds * 1e3:.2f} ms ({speedup:.1f}x); vm_by_id linear "
          f"{linear_seconds * 1e6:.1f} us vs indexed {indexed_seconds * 1e6:.2f} us "
          f"({lookup_speedup:.0f}x)")
    assert_perf(speedup >= 2.0,
                f"columnar filters should be >= 2x the object loops, got "
                f"{speedup:.2f}x")
    assert_perf(lookup_speedup >= 5.0,
                f"indexed vm_by_id should be >= 5x a linear scan, got "
                f"{lookup_speedup:.2f}x")


def test_bench_mmap_bounded_replay(benchmark, tmp_path):
    """A trace bigger than the RAM budget replays from disk within budget."""
    trace = generate_store_bench_trace(smoke=bench_smoke_enabled())
    outcome = run_once(benchmark, measure_mmap_bounded_replay, trace, tmp_path)
    print(f"\nmmap replay: buffer {outcome['buffer_nbytes'] / 1e6:.1f} MB, "
          f"budget {outcome['budget_bytes'] / 1e6:.1f} MB, streaming peak "
          f"{outcome['mmap_peak_bytes'] / 1e6:.1f} MB vs in-RAM peak "
          f"{outcome['dense_peak_bytes'] / 1e6:.1f} MB "
          f"({outcome['peak_reduction']:.1f}x)")
    # The harness already hard-asserts bitwise equality and the budget bound;
    # restate the structural claims here so a harness regression cannot
    # silently weaken the benchmark.
    assert outcome["bitwise_identical"]
    assert outcome["buffer_nbytes"] > outcome["budget_bytes"], (
        "the workload must not fit the in-RAM budget, or the benchmark "
        "demonstrates nothing")
    assert outcome["mmap_peak_bytes"] < outcome["budget_bytes"]
    assert_perf(outcome["peak_reduction"] >= 3.0,
                "streaming replay should peak at <= 1/3 of the in-RAM "
                f"replay, got {outcome['peak_reduction']:.1f}x")
