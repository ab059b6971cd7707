"""Measurement harnesses for the per-subsystem benchmark gates.

The ``benchmarks/`` suite gates each subsystem through these harnesses:
worker sizing, wall-clock pairing, tracemalloc peaks, and the bitwise
divergence checks that make every timed run a differential test too.
They live in the package, not in ``benchmarks/``, because this is the one
module where REP004 allows clock reads, and because the end-to-end
benchmark (``perfbench/``) times :func:`run_characterization_suite` as its
characterization stage.  The workload *builders* live in
:mod:`repro.simulator.synthetic`, shared with the differential tests.
"""

from __future__ import annotations

import dataclasses
import filecmp
import os
import pickle
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.policy import COACH_POLICY
from repro.core.scheduler import ServerAccount
from repro.simulator.engine import SimulationConfig, simulate_policy
from repro.simulator.replay import VectorizedViolationMeter, chunk_slots_for_budget
from repro.simulator.sweep import SweepTask, create_sweep_executor, sweep_policies
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.store import TraceStore
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


#: Values that switch smoke mode on; anything else (including "false",
#: "no", "off") leaves the benchmarks at full strength, so a developer
#: exporting a falsy-looking value cannot silently disable enforcement.
_SMOKE_TRUTHY = frozenset({"1", "true", "yes", "on"})


def bench_smoke_enabled() -> bool:
    """Whether benchmark smoke mode is on (``REPRO_BENCH_SMOKE=1``).

    The single source of truth for the knob: ``benchmarks/conftest.py``
    relaxes perf thresholds on it, and the benchmark modules shrink their
    workloads on it, so both halves of a smoke run must parse it
    identically.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in _SMOKE_TRUTHY


def sweep_bench_workers() -> int:
    """Worker count for the sweep wall-clock measurements: at least 2 so
    the process-pool path (and its bitwise merge) is exercised even on
    single-CPU machines, at most 4 (the standard policy count)."""
    return max(2, min(4, os.cpu_count() or 1))


def measure_sweep_serial_vs_pool(trace: Trace, *, n_clusters: int = 3,
                                 n_estimators: int = 3,
                                 workers: Optional[int] = None) -> Dict[str, object]:
    """Time the standard-policy sweep serially and with a process pool.

    The pool is timed twice on one long-lived executor
    (:func:`repro.simulator.sweep.create_sweep_executor`): the first run
    (``pool_cold_seconds``) pays the worker spawn + numpy-import bill on
    top of the compute, the second (``pool_seconds``) hits warm workers
    and measures the compute the pool actually parallelizes.  The tracked
    ``speedup`` is serial/warm -- spawn is a fixed per-pool cost any
    caller who sweeps repeatedly amortizes away -- with serial/cold kept
    alongside as ``cold_speedup`` so the one-shot bill stays visible.

    Raises ``AssertionError`` if either pool merge diverges from the
    serial walk -- the differential check at scale.  The returned mapping
    carries the wall-clocks, both speedups, and (under ``"results"``) the
    serial PolicyEvaluations for callers that want the numbers themselves.
    """
    clusters = trace.cluster_ids()[:n_clusters]
    if workers is None:
        workers = sweep_bench_workers()
    serial_config = SimulationConfig(clusters=clusters, n_estimators=n_estimators)
    pool_config = replace(serial_config, sweep_parallelism=workers)

    begin = time.perf_counter()
    serial = sweep_policies(trace, config=serial_config)
    serial_seconds = time.perf_counter() - begin

    executor = create_sweep_executor(workers)
    try:
        begin = time.perf_counter()
        cold = sweep_policies(trace, config=pool_config, executor=executor)
        pool_cold_seconds = time.perf_counter() - begin

        begin = time.perf_counter()
        pooled = sweep_policies(trace, config=pool_config, executor=executor)
        pool_seconds = time.perf_counter() - begin
    finally:
        executor.shutdown()

    for label, run in (("cold", cold), ("warm", pooled)):
        if list(serial) != list(run):
            raise AssertionError(
                f"{label} process-pool sweep reordered the policy results")
        for name in serial:
            if serial[name] != run[name]:
                raise AssertionError(
                    f"{label} process-pool sweep diverged from serial "
                    f"for policy {name!r}")
    return {
        "policies": list(serial),
        "n_clusters": len(clusters),
        "workers": workers,
        "serial_seconds": serial_seconds,
        "pool_cold_seconds": pool_cold_seconds,
        "pool_seconds": pool_seconds,
        "speedup": serial_seconds / pool_seconds,
        "cold_speedup": serial_seconds / pool_cold_seconds,
        "bitwise_identical": True,
        "results": serial,
    }


def measure_scheduler_scaling(*, smoke: bool = False,
                              seed: int = 7) -> Dict[str, object]:
    """Placement throughput across fleet sizes: incremental vs dense (PR 6).

    For every fleet size in :func:`scheduler_scaling_sizes`, one
    incremental scheduler (tiered index at the largest sizes, screened
    below) places the full arrival sequence while the dense PR 6 baseline
    (``ClusterScheduler(..., incremental=False)``) is timed on a prefix,
    both through sequential ``place`` calls -- the dense per-call cost is
    dominated by the full-fleet ``mean(axis=2)`` pass, which is independent
    of cluster fill, so a prefix rate is representative.  Each curve point
    records the extrapolation explicitly (``dense_extrapolated`` /
    ``dense_extrapolation_factor``) so the dense plans/s can never be
    misread as measured end-to-end, plus the process's peak RSS after the
    size finished (``ru_maxrss_kb`` -- a monotone high-water mark, sizes
    run in ascending order).  Raises ``AssertionError`` if the two paths'
    decisions diverge on the shared prefix (they are contractually
    bitwise-identical).  Returns the curve plus the speedup at the largest
    size, the number the scheduler-scale benchmark gates.
    """
    import resource as _resource
    from repro.core.scheduler import ClusterScheduler
    from repro.simulator.synthetic import (
        BENCH_WINDOWS,
        build_placement_plans,
        build_scaled_bench_cluster,
        scheduler_scaling_plan_count,
        scheduler_scaling_sizes,
    )

    sizes = scheduler_scaling_sizes(smoke=smoke)
    n_plans = scheduler_scaling_plan_count(smoke=smoke)
    dense_prefix = max(50, n_plans // 5)
    curve = []
    for n_servers in sizes:
        cluster = build_scaled_bench_cluster(n_servers)
        plans = build_placement_plans(n_plans, BENCH_WINDOWS, seed=seed)

        incremental = ClusterScheduler(cluster, BENCH_WINDOWS)
        begin = time.perf_counter()
        incremental_decisions = [incremental.place(plan) for plan in plans]
        incremental_seconds = time.perf_counter() - begin

        dense = ClusterScheduler(cluster, BENCH_WINDOWS, incremental=False)
        begin = time.perf_counter()
        dense_decisions = [dense.place(plan) for plan in plans[:dense_prefix]]
        dense_seconds = time.perf_counter() - begin

        if incremental_decisions[:dense_prefix] != dense_decisions:
            raise AssertionError(
                f"incremental place diverged from the dense baseline at "
                f"{n_servers} servers")
        incremental_rate = n_plans / incremental_seconds
        dense_rate = dense_prefix / dense_seconds
        curve.append({
            "n_servers": n_servers,
            "n_plans": n_plans,
            "accepted": incremental.accepted_count(),
            "rejected": incremental.rejected_count(),
            "incremental_seconds": incremental_seconds,
            "incremental_plans_per_s": incremental_rate,
            "dense_prefix_plans": dense_prefix,
            "dense_seconds": dense_seconds,
            "dense_plans_per_s": dense_rate,
            "dense_extrapolated": dense_prefix < n_plans,
            "dense_extrapolation_factor": n_plans / dense_prefix,
            "speedup": incremental_rate / dense_rate,
            "decisions_identical": True,
            "ru_maxrss_kb": int(
                _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss),
        })
    return {
        "sizes": list(sizes),
        "curve": curve,
        "largest_size": curve[-1]["n_servers"],
        "largest_speedup": curve[-1]["speedup"],
    }


def measure_replay_memory(servers: Iterable[ServerAccount],
                          placed: Dict[str, VMRecord], n_slots: int,
                          chunk_slots: int,
                          cpu_contention_fraction: float = 0.5) -> Dict[str, object]:
    """Peak traced memory and wall-clock of dense vs. chunked replay.

    tracemalloc traces every allocation, so for a fixed workload the peaks
    are deterministic.  Each mode is replayed twice: once untraced for the
    wall-clock and once under tracemalloc for the peak, because tracing
    charges every allocation and would bill the chunked mode's many small
    per-chunk buffers for the tracer's bookkeeping.  Raises
    ``AssertionError`` if the chunked stats diverge from the dense ones.
    """
    # Every pass iterates the servers; materialize so a generator argument
    # cannot arrive exhausted at a later pass.
    servers = list(servers)

    def replay(meter: VectorizedViolationMeter):
        begin = time.perf_counter()
        stats = meter.measure(servers, placed, 0, n_slots,
                              cpu_contention_fraction)
        seconds = time.perf_counter() - begin
        tracemalloc.start()
        meter.measure(servers, placed, 0, n_slots, cpu_contention_fraction)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return stats, peak, seconds

    dense_stats, dense_peak, dense_seconds = replay(VectorizedViolationMeter())
    chunked_stats, chunked_peak, chunked_seconds = replay(
        VectorizedViolationMeter(chunk_slots=chunk_slots))
    if chunked_stats != dense_stats:
        raise AssertionError("chunked replay diverged from dense replay")
    return {
        "chunk_slots": chunk_slots,
        "observed_server_slots": dense_stats.observed_server_slots,
        "dense_peak_bytes": dense_peak,
        "dense_seconds": dense_seconds,
        "chunked_peak_bytes": chunked_peak,
        "chunked_seconds": chunked_seconds,
        "peak_reduction": dense_peak / max(1, chunked_peak),
    }


def assert_results_identical(reference: object, candidate: object, *,
                             path: str = "result") -> None:
    """Structural equality of two characterization/figure results.

    Walks dataclasses, dicts, sequences and arrays side by side.  Every
    float must match *bitwise* (NaNs compare equal positionally) -- the
    differential contract of the columnar layer.  Raises
    ``AssertionError`` naming the first diverging path.
    """
    if dataclasses.is_dataclass(reference) and not isinstance(reference, type):
        assert type(reference) is type(candidate), \
            f"{path}: {type(reference)} vs {type(candidate)}"
        for field in dataclasses.fields(reference):
            assert_results_identical(getattr(reference, field.name),
                                     getattr(candidate, field.name),
                                     path=f"{path}.{field.name}")
        return
    if isinstance(reference, dict):
        assert set(reference) == set(candidate), \
            f"{path}: key mismatch {set(reference) ^ set(candidate)}"
        for key in reference:
            assert_results_identical(reference[key], candidate[key],
                                     path=f"{path}[{key!r}]")
        return
    if isinstance(reference, np.ndarray) or isinstance(candidate, np.ndarray):
        left = np.asarray(reference)
        right = np.asarray(candidate)
        assert left.shape == right.shape, \
            f"{path}: shape {left.shape} vs {right.shape}"
        matches = (left == right) | (_isnan(left) & _isnan(right))
        assert matches.all(), f"{path}: arrays diverge ({left} vs {right})"
        return
    if isinstance(reference, (list, tuple)):
        assert len(reference) == len(candidate), \
            f"{path}: length {len(reference)} vs {len(candidate)}"
        for i, (left, right) in enumerate(zip(reference, candidate)):
            assert_results_identical(left, right, path=f"{path}[{i}]")
        return
    assert reference == candidate or (reference != reference
                                      and candidate != candidate), \
        f"{path}: {reference!r} vs {candidate!r}"


def _isnan(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return np.isnan(values)
    return np.zeros(values.shape, dtype=bool)


def run_characterization_suite(trace: Trace) -> Dict[str, object]:
    """The Section-2 statistic suite timed by the characterization benchmark.

    One call per statistic family (Figures 2-12), with the window sweeps
    trimmed to representative lengths so the reference pass stays
    benchmarkable.  :func:`measure_characterization_throughput` times
    exactly this suite, once over the public statistics and once over
    their ``reference_*`` loops, and ``perfbench/`` times it as its
    characterization stage, so the gated speedup and the end-to-end stage
    measure the same suite.
    """
    return _characterization_suite(trace, "")


def _characterization_suite(trace: Trace, prefix: str) -> Dict[str, object]:
    """The suite over the statistics named ``prefix + <statistic>``."""
    # Imported here (not module level): characterization sits above the
    # simulator in the layering, and only this harness needs it.  Looked
    # up per call, so a wrapper installed on the package is what runs.
    import repro.characterization as characterization
    from repro.trace.timeseries import SLOTS_PER_DAY

    def statistic(name: str):
        return getattr(characterization, prefix + name)

    return {
        "duration": statistic("resource_hours_by_duration")(trace),
        "size": statistic("resource_hours_by_size")(trace),
        "shape": statistic("median_vm_shape")(trace),
        "scatter": statistic("utilization_scatter")(trace),
        "summary": statistic("utilization_summary")(trace),
        "peaks": statistic("peaks_and_valleys_by_window")(trace),
        "consistency": statistic("peak_consistency_cdf")(
            trace, window_hours_sweep=[1, 4, 24]),
        "savings": statistic("cluster_savings")(
            trace, window_hours_sweep=[24, 4, 1]),
        "weekly": statistic("weekly_savings_profile")(
            trace, window_hours_sweep=[4]),
        "stranding": statistic("stranding_by_scenario")(
            trace, sample_every_slots=SLOTS_PER_DAY // 2),
        "predictability": statistic("group_predictability")(trace),
    }


def measure_characterization_throughput(trace: Trace) -> Dict[str, object]:
    """Wall-clock of the Section-2 suite: columnar vs per-VM reference.

    The reference pass runs the same suite through each statistic's
    ``reference_*`` loop, reading the same buffers through the trace's row
    views.  Raises ``AssertionError`` if any statistic diverges bitwise.
    One warm-up pass per side keeps first-call numpy setup out of the
    timings.
    """
    run_characterization_suite(trace)
    _characterization_suite(trace, "reference_")

    begin = time.perf_counter()
    columnar_results = run_characterization_suite(trace)
    columnar_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    reference_results = _characterization_suite(trace, "reference_")
    reference_seconds = time.perf_counter() - begin

    assert_results_identical(reference_results, columnar_results)
    return {
        "n_vms": len(trace.vms),
        "n_slots": trace.n_slots,
        "n_clusters": len(trace.fleet.clusters),
        "reference_seconds": reference_seconds,
        "columnar_seconds": columnar_seconds,
        "speedup": reference_seconds / columnar_seconds,
        "bitwise_identical": True,
    }


def measure_sweep_task_footprint(trace: Trace,
                                 config: Optional[SimulationConfig] = None
                                 ) -> Dict[str, object]:
    """Per-worker bytes shipped by a sweep task: pickled trace vs staged store.

    A pickle-transport task carries the whole trace, so every worker
    unpickles (and then owns) a private copy of the telemetry; a staged
    :class:`SweepTask` carries only the path of the store the pooled sweep
    saves once, and workers memory-map it, sharing one page-cache copy.
    The pickled task size is the exact number of bytes each worker must
    receive *and materialize*, which makes it the deterministic proxy for
    per-worker sweep memory that the trace-store benchmark gates.  Also
    times unpickling the trace task against a worker's open of the staged
    store (the per-worker startup cost the transports trade): five times
    each, alternating, and the minima are reported, so one descheduled
    sample cannot decide the comparison.
    """
    config = config or SimulationConfig()
    # The pickled baseline models the seed transport: the VM records, the
    # fleet, n_slots and the subscriptions, with no store beside them (a
    # store would ship the telemetry a second time).
    pickled_task = pickle.dumps(
        ("coach", COACH_POLICY, list(trace.vms), trace.fleet, trace.n_slots,
         trace.subscriptions, config),
        protocol=pickle.HIGHEST_PROTOCOL)

    store = trace.store
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as staging:
        store.save(staging)
        staged_task = pickle.dumps(
            SweepTask("coach", COACH_POLICY, None, config, store_path=staging),
            protocol=pickle.HIGHEST_PROTOCOL)

        unpickle_seconds = open_seconds = float("inf")
        for _ in range(5):
            begin = time.perf_counter()
            unpickled = pickle.loads(pickled_task)[2]
            unpickle_seconds = min(unpickle_seconds,
                                   time.perf_counter() - begin)
            begin = time.perf_counter()
            opened = TraceStore.open(pickle.loads(staged_task).store_path,
                                     mmap=True).as_trace()
            open_seconds = min(open_seconds, time.perf_counter() - begin)
        if [vm.vm_id for vm in opened.vms] != [vm.vm_id for vm in unpickled]:
            raise AssertionError("staged trace diverged from pickled trace")
    return {
        "n_vms": len(unpickled),
        "util_nbytes": store.util_nbytes,
        "pickled_task_bytes": len(pickled_task),
        "staged_task_bytes": len(staged_task),
        "footprint_reduction": len(pickled_task) / max(1, len(staged_task)),
        "unpickle_seconds": unpickle_seconds,
        "open_seconds": open_seconds,
    }


def assert_store_dirs_identical(reference, candidate) -> None:
    """Byte-compare two on-disk trace stores, file by file.

    The builder's differential contract at benchmark scale: same file set,
    same bytes.  ``filecmp.cmp(shallow=False)`` streams fixed-size blocks,
    so the comparison itself never loads a telemetry buffer into RAM.
    Raises ``AssertionError`` naming the first divergence.
    """
    reference = Path(reference)
    candidate = Path(candidate)
    ref_names = sorted(p.name for p in reference.iterdir())
    cand_names = sorted(p.name for p in candidate.iterdir())
    if ref_names != cand_names:
        raise AssertionError(
            f"store file sets differ: {ref_names} vs {cand_names}")
    for name in ref_names:
        if not filecmp.cmp(reference / name, candidate / name, shallow=False):
            raise AssertionError(f"store file {name} differs byte-wise")


def measure_streaming_ingest(config: TraceGeneratorConfig,
                             workdir) -> Dict[str, object]:
    """Peak ingest memory: streaming builder vs the eager from_trace path.

    Runs the same generator configuration twice from the same seed: once
    through ``generate_to_store`` (one VM record alive at a time,
    telemetry appended straight to disk) and once through the eager shape
    (``generate()`` materializing every record and encoding them into the
    full flat buffers, then ``trace.store.save(...)``), each under
    tracemalloc.  Asserts the two stores are
    byte-identical and that the streaming one opens via
    ``TraceStore.open(mmap=True)`` -- the correctness half of the claim --
    then reports the peak-memory ratio and ingest rate, the numbers the
    streaming-ingest benchmark gates.
    """
    workdir = Path(workdir)
    stream_path = workdir / "stream-store"
    eager_path = workdir / "eager-store"

    tracemalloc.start()
    begin = time.perf_counter()
    TraceGenerator(config).generate_to_store(stream_path)
    stream_seconds = time.perf_counter() - begin
    _current, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    begin = time.perf_counter()
    trace = TraceGenerator(config).generate()
    trace.store.save(eager_path)
    eager_seconds = time.perf_counter() - begin
    _current, eager_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del trace

    assert_store_dirs_identical(eager_path, stream_path)
    opened = TraceStore.open(stream_path, mmap=True)
    if len(opened) != config.n_vms:
        raise AssertionError(
            f"streamed store holds {len(opened)} VMs, expected {config.n_vms}")
    n_samples = int(opened.offsets[-1])
    store_bytes = sum(p.stat().st_size for p in stream_path.iterdir())
    return {
        "n_vms": config.n_vms,
        "n_days": config.n_days,
        "n_slots": config.n_slots,
        "n_samples": n_samples,
        "store_bytes": store_bytes,
        "stream_seconds": stream_seconds,
        "stream_peak_bytes": stream_peak,
        "eager_seconds": eager_seconds,
        "eager_peak_bytes": eager_peak,
        "peak_reduction": eager_peak / max(1, stream_peak),
        "vms_per_second": config.n_vms / stream_seconds,
        "samples_per_second": n_samples / stream_seconds,
        "bitwise_identical": True,
    }


def measure_mmap_bounded_replay(trace: Trace, workdir,
                                *, n_estimators: int = 3,
                                budget_divisor: int = 3) -> Dict[str, object]:
    """End-to-end replay RAM: full in-RAM load vs mmap + chunked streaming.

    Saves the trace as a columnar store, then runs
    the coach policy through ``simulate_policy`` twice from disk: once fully
    loaded with the dense meter (the seed shape: everything in RAM), once
    memory-mapped with the chunk width sized by
    :func:`chunk_slots_for_budget` for a budget of
    ``util_nbytes / budget_divisor`` -- i.e. the telemetry deliberately does
    *not* fit the configured budget, and only the streaming path can respect
    it.  Raises ``AssertionError`` if the two evaluations diverge (they read
    the same buffer, so they must be bitwise identical) or if the streaming
    peak exceeds the budget.
    """
    store = trace.store
    path = Path(workdir) / "trace-store"
    store.save(path)
    buffer_nbytes = store.util_nbytes
    budget_bytes = max(1, buffer_nbytes // budget_divisor)
    max_servers = max(c.server_count for c in trace.fleet.clusters)
    chunk_slots = chunk_slots_for_budget(max_servers, budget_bytes)

    def replay_from_disk(mmap: bool, config: SimulationConfig):
        tracemalloc.start()
        begin = time.perf_counter()
        opened = TraceStore.open(path, mmap=mmap)
        evaluation = simulate_policy(opened.as_trace(), COACH_POLICY, config)
        seconds = time.perf_counter() - begin
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return evaluation, peak, seconds

    dense_eval, dense_peak, dense_seconds = replay_from_disk(
        False, SimulationConfig(n_estimators=n_estimators))
    mmap_eval, mmap_peak, mmap_seconds = replay_from_disk(
        True, SimulationConfig(n_estimators=n_estimators,
                               replay_chunk_slots=chunk_slots))
    if mmap_eval != dense_eval:
        raise AssertionError("mmap-backed replay diverged from in-RAM replay")
    if mmap_peak >= budget_bytes:
        raise AssertionError(
            f"streaming replay peak {mmap_peak} bytes exceeds the in-RAM "
            f"budget {budget_bytes} bytes")
    return {
        "buffer_nbytes": buffer_nbytes,
        "budget_bytes": budget_bytes,
        "chunk_slots": chunk_slots,
        "n_servers_max": max_servers,
        "dense_peak_bytes": dense_peak,
        "dense_seconds": dense_seconds,
        "mmap_peak_bytes": mmap_peak,
        "mmap_seconds": mmap_seconds,
        "peak_reduction": dense_peak / max(1, mmap_peak),
        "bitwise_identical": True,
    }

