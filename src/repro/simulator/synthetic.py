"""Synthetic placed-replay workloads for differential tests and benchmarks.

Both the meter-equivalence tests and the replay-scale benchmark need the
same thing: a scheduler with randomized VM plans committed to it, plus the
matching :class:`VMRecord` telemetry that :class:`ClusterSimulation` would
hand to a violation meter.  Keeping the builder in one place guarantees the
at-scale benchmark and the differential tests exercise the same workload
shape (truncated series, stale plan entries, commit/release churn), so a
change to the plan or telemetry schema cannot silently drift between them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import ClusterScheduler, ServerAccount
from repro.core.windows import plan_vm
from repro.prediction.utilization_model import WindowUtilizationPrediction
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.hardware import ClusterConfig
from repro.trace.timeseries import SLOTS_PER_DAY, TimeWindowConfig, UtilizationSeries
from repro.trace.trace import Trace
from repro.trace.vm import VM_CATALOG, VMRecord

#: Small shapes, so even a modest cluster genuinely hosts most arrivals.
DEFAULT_CONFIG_NAMES: Tuple[str, ...] = ("D1_v5", "D2_v5", "D4_v5", "F2_v2", "E2_v5")

#: Window configuration shared by every benchmark workload below.
BENCH_WINDOWS = TimeWindowConfig(4)

#: 200-server cluster timed by the placement and replay scale benchmarks --
#: one definition, so the plans/s and server-slots/s they gate are measured
#: on the same fleet.
SCALE_BENCH_CLUSTER = ClusterConfig(
    "SCALE", "bench",
    (("gen4-intel", 60), ("gen5-intel", 50), ("gen6-amd", 50), ("gen7-amd", 40)))

#: Fleet sizes of the scheduler scaling-curve benchmark (full mode).  The
#: smallest matches :data:`SCALE_BENCH_CLUSTER` so the curve's first point
#: stays comparable with the single-size placement benchmark.
SCHEDULER_SCALING_SIZES: Tuple[int, ...] = (200, 1000, 5000, 20000, 100000)

#: Reduced fleet sizes under ``REPRO_BENCH_SMOKE=1``.  Like the full list,
#: it holds a fleet below the indexing threshold
#: (``scheduler._SCREENED_MIN_SERVERS``), one between it and the tiered-index
#: threshold (``scheduler._TIERED_MIN_SERVERS``) and one above both, so even
#: the smoke curve times and checks decision identity on the dense pass,
#: the screened link and the band-descent scan
#: (``tests/test_scheduler_incremental.py`` fails when a threshold moves
#: past a size).
SCHEDULER_SCALING_SIZES_SMOKE: Tuple[int, ...] = (100, 400, 10000)


def scheduler_scaling_sizes(*, smoke: bool = False) -> Tuple[int, ...]:
    """Fleet sizes timed by the scheduler scaling curve (smoke-aware)."""
    return SCHEDULER_SCALING_SIZES_SMOKE if smoke else SCHEDULER_SCALING_SIZES


def scheduler_scaling_plan_count(*, smoke: bool = False) -> int:
    """Arrival-sequence length per fleet size of the scaling curve."""
    return 800 if smoke else 3000


def build_scaled_bench_cluster(n_servers: int) -> ClusterConfig:
    """A :data:`SCALE_BENCH_CLUSTER`-shaped cluster with *n_servers* servers.

    Keeps the four-generation mix (so capacity stays heterogeneous and the
    best-fit tie-breaking is exercised) while scaling the server count --
    the independent variable of the scaling-curve benchmark.
    """
    if n_servers < 4:
        raise ValueError(f"scaled bench cluster needs >= 4 servers, got {n_servers}")
    quarter = n_servers // 4
    return ClusterConfig(
        f"SCALE-{n_servers}", "bench",
        (("gen4-intel", n_servers - 3 * quarter), ("gen5-intel", quarter),
         ("gen6-amd", quarter), ("gen7-amd", quarter)))


#: 100-server cluster for the multi-week streaming-replay demonstrations.
MULTIWEEK_BENCH_CLUSTER = ClusterConfig(
    "SWEEP", "bench",
    (("gen4-intel", 40), ("gen5-intel", 30), ("gen6-amd", 30)))

#: Chunk width (one day of 5-minute slots) used by the bounded-memory
#: replay demonstrations.
BENCH_CHUNK_SLOTS = 288


def build_placed_replay_state(
    cluster: ClusterConfig,
    windows: TimeWindowConfig,
    n_vms: int,
    n_slots: int,
    *,
    seed: int = 7,
    lifetime_range: Tuple[int, int] = (24, 48),
    start_margin: int | None = None,
    max_end_overshoot: int = 0,
    config_names: Sequence[str] = DEFAULT_CONFIG_NAMES,
    util_max_range: Tuple[float, float] = (0.05, 0.5),
    util_pct_range: Tuple[float, float] = (0.02, 0.3),
    full_coverage_probability: float = 0.8,
    stale_plan_probability: float = 0.0,
    churn_probability: float = 0.0,
) -> Tuple[List[ServerAccount], Dict[str, VMRecord]]:
    """Commit randomized VM plans and attach randomized telemetry.

    Returns ``(servers, placed)`` mirroring what ``ClusterSimulation`` hands
    to a violation meter.  Depending on the probabilities, the workload
    includes series covering only part of the lifetime (truncated
    telemetry), committed plans whose VM never lands in ``placed`` (stale
    entries), and interleaved deallocations (churn).  Lifetimes may overrun
    the evaluation window by up to *max_end_overshoot* slots, which
    exercises the meters' end-clamping.
    """
    rng = np.random.default_rng(seed)
    scheduler = ClusterScheduler(cluster, windows)
    placed: Dict[str, VMRecord] = {}
    configs = [VM_CATALOG[name] for name in config_names]
    w = windows.windows_per_day
    if start_margin is None:
        start_margin = lifetime_range[0]
    for i in range(n_vms):
        maximum = {r: rng.uniform(*util_max_range, w) for r in ALL_RESOURCES}
        percentile = {r: np.minimum(maximum[r], rng.uniform(*util_pct_range, w))
                      for r in ALL_RESOURCES}
        prediction = WindowUtilizationPrediction(
            windows=windows, percentile=percentile, maximum=maximum)
        config = configs[rng.integers(len(configs))]
        allocation = {Resource.CPU: float(config.cores),
                      Resource.MEMORY: float(config.memory_gb),
                      Resource.NETWORK: config.network_gbps,
                      Resource.SSD: float(config.ssd_gb)}
        decision = scheduler.place(
            plan_vm(f"vm-{i}", allocation, prediction, oversubscribe=True))
        start_slot = int(rng.integers(0, n_slots - start_margin))
        end_slot = int(min(n_slots + max_end_overshoot,
                           start_slot + rng.integers(*lifetime_range)))
        if decision.accepted and not (stale_plan_probability
                                      and rng.random() < stale_plan_probability):
            vm = VMRecord(f"vm-{i}", "sub", config, cluster.cluster_id,
                          start_slot, end_slot)
            lifetime = end_slot - start_slot
            covered = (lifetime if rng.random() < full_coverage_probability
                       else int(rng.integers(1, lifetime + 1)))
            vm.utilization = {
                r: UtilizationSeries(rng.uniform(0.0, 1.0, covered), start_slot)
                for r in (Resource.CPU, Resource.MEMORY)}
            placed[vm.vm_id] = vm
        if churn_probability and placed and rng.random() < churn_probability:
            victim = next(iter(placed))
            scheduler.deallocate(victim)
            placed.pop(victim)
    return list(scheduler.servers.values()), placed


def build_placement_plans(
    n_plans: int,
    windows: TimeWindowConfig,
    *,
    seed: int = 7,
    core_choices: Sequence[float] = (1, 2, 2, 4, 4, 8),
) -> List[object]:
    """Randomized VM resource plans for placement-throughput measurements.

    The single-size placement benchmark (:func:`build_placement_bench_plans`)
    and the scaling curve
    (:func:`repro.simulator.benchmarking.measure_scheduler_scaling`) must
    time the *same* workload shape, or the curve's first point would stop
    being comparable with the single-size gate, so the builder lives here
    rather than in either harness.
    """
    rng = np.random.default_rng(seed)
    w = windows.windows_per_day
    plans = []
    for i in range(n_plans):
        maximum = {r: rng.uniform(0.1, 0.9, w) for r in ALL_RESOURCES}
        percentile = {r: np.minimum(maximum[r], rng.uniform(0.05, 0.7, w))
                      for r in ALL_RESOURCES}
        prediction = WindowUtilizationPrediction(
            windows=windows, percentile=percentile, maximum=maximum)
        cores = float(rng.choice(core_choices))
        allocation = {Resource.CPU: cores, Resource.MEMORY: cores * 4.0,
                      Resource.NETWORK: min(0.5 * cores, 16.0),
                      Resource.SSD: 32.0 * cores}
        plans.append(plan_vm(f"vm-{i}", allocation, prediction, oversubscribe=True))
    return plans


def build_placement_bench_plans(*, smoke: bool = False, seed: int = 7) -> List[object]:
    """The placement-throughput workload (the plan count shrinks under the
    CI smoke knob, consistently for the pytest benchmark and the tracking
    script)."""
    return build_placement_plans(1500 if smoke else 5000, BENCH_WINDOWS, seed=seed)


def build_replay_scale_state(
    *,
    smoke: bool = False,
    seed: int = 7,
) -> Tuple[List[ServerAccount], Dict[str, VMRecord], int]:
    """The replay-throughput workload: one day of telemetry, short-lived VMs.

    Short lifetimes keep the per-VM bookkeeping (where the seed loop pays)
    dominant over raw sample volume; 20% of the VMs get truncated series so
    the clamping path is exercised.  Returns ``(servers, placed, n_slots)``.
    """
    n_slots = SLOTS_PER_DAY
    servers, placed = build_placed_replay_state(
        SCALE_BENCH_CLUSTER, BENCH_WINDOWS, 1500 if smoke else 5000, n_slots,
        seed=seed, lifetime_range=(8, 20), full_coverage_probability=0.8)
    return servers, placed, n_slots


def build_chunked_bench_state(
    *,
    smoke: bool = False,
    seed: int = 11,
) -> Tuple[List[ServerAccount], Dict[str, VMRecord], int]:
    """The bounded-memory demonstration workload: a multi-week replay state
    whose dense demand matrix is >= 10x the :data:`BENCH_CHUNK_SLOTS`
    budget (14x at the smoke size, 28x at full size)."""
    return build_multiweek_replay_state(
        MULTIWEEK_BENCH_CLUSTER, BENCH_WINDOWS,
        n_vms=1200 if smoke else 3000,
        n_days=14 if smoke else 28, seed=seed)


def generate_sweep_bench_trace(*, smoke: bool = False) -> Trace:
    """The multi-week trace swept by the sweep wall-clock measurements."""
    return generate_multiweek_trace(n_days=14 if smoke else 21,
                                    n_vms=300 if smoke else 500)


def generate_store_bench_trace(*, smoke: bool = False) -> Trace:
    """The trace behind the trace-store benchmarks (footprint, filters, mmap).

    Telemetry-dense on purpose: a long horizon with a moderate VM count, so
    the flat utilization buffer dwarfs the per-VM metadata the way a
    production trace does -- that is the regime where per-worker pickled
    copies and full in-RAM loads visibly hurt.  Shared by the footprint
    and mmap-replay benchmarks in ``benchmarks/test_bench_trace_store.py``,
    so both gate the same trace.
    """
    return generate_multiweek_trace(n_days=42 if smoke else 84,
                                    n_vms=250 if smoke else 500,
                                    servers_per_cluster=2)


def build_multiweek_replay_state(
    cluster: ClusterConfig,
    windows: TimeWindowConfig,
    n_vms: int,
    n_days: int,
    *,
    seed: int = 11,
    min_lifetime_days: float = 0.5,
    max_lifetime_days: float = 7.0,
    **kwargs: object,
) -> Tuple[List[ServerAccount], Dict[str, VMRecord], int]:
    """Production-length replay state: ``n_days`` of 5-minute telemetry.

    A multi-week evaluation window is where the dense ``(n_servers,
    n_slots)`` demand matrix stops fitting in a sane budget, so this is the
    workload the chunked streaming meter exists for.  Lifetimes span from
    *min_lifetime_days* to *max_lifetime_days* (long-running VMs straddle
    many slot chunks, guaranteeing chunk boundaries split demand segments).
    Returns ``(servers, placed, n_slots)``.
    """
    if n_days < 8:
        raise ValueError(f"a multi-week state needs n_days >= 8, got {n_days}")
    n_slots = n_days * SLOTS_PER_DAY
    lifetime_range = (max(1, int(min_lifetime_days * SLOTS_PER_DAY)),
                      max(2, int(max_lifetime_days * SLOTS_PER_DAY)))
    servers, placed = build_placed_replay_state(
        cluster, windows, n_vms, n_slots, seed=seed,
        lifetime_range=lifetime_range, **kwargs)
    return servers, placed, n_slots


def streaming_ingest_config(*, smoke: bool = False) -> TraceGeneratorConfig:
    """The month-scale workload of the streaming-ingest benchmark.

    Sized so the eager path (the whole flat telemetry buffers in RAM at
    once) visibly dwarfs the streaming builder's one record at a time --
    the regime ``generate_to_store`` exists for.  Ingests of the ~1M-VM
    scale documented in ``docs/trace_store.md`` use the same code path
    with a larger ``n_vms``, they are just too slow to regenerate per
    benchmark run.
    """
    return TraceGeneratorConfig(
        n_vms=1200 if smoke else 6000,
        n_days=14 if smoke else 30,
        seed=2026,
        n_subscriptions=40 if smoke else 80,
        servers_per_cluster=2)


def generate_multiweek_trace(
    n_days: int = 28,
    n_vms: int = 600,
    seed: int = 2025,
    n_subscriptions: int = 40,
    servers_per_cluster: int = 1,
) -> Trace:
    """A multi-week synthetic trace for sweep benchmarks and scale tests.

    Thin, intention-revealing front-end to :class:`TraceGenerator`: the
    sweep benchmark and the streaming-replay demonstrations need the *same*
    long trace so their numbers are comparable PR over PR, which is why the
    parameter set lives here instead of inline in each benchmark.
    """
    if n_days < 14:
        raise ValueError(f"a multi-week trace needs n_days >= 14, got {n_days}")
    config = TraceGeneratorConfig(
        n_vms=n_vms, n_days=n_days, seed=seed,
        n_subscriptions=n_subscriptions,
        servers_per_cluster=servers_per_cluster)
    return TraceGenerator(config).generate()
