"""Synthetic Azure-like trace generation.

The paper characterizes two weeks of production telemetry from over one
million opaque VMs.  That trace is proprietary, so this generator produces a
synthetic trace with the same *statistical structure* (see DESIGN.md):

* duration mix -- most VMs are short-lived, but the ~28% lasting longer than
  a day consume ~96% of core-hours (Figure 2);
* size mix -- median VM around 4 cores / 16 GB, with large VMs consuming a
  disproportionate share of GB-hours (Figure 3);
* per-cluster hardware heterogeneity driving different bottleneck resources
  (Figures 4 and 5);
* low average CPU utilization with wide ranges, diverse but stable memory
  utilization (Figure 6);
* recurring daily peaks and valleys that are consistent day over day and
  complementary across subscriptions (Figures 7-11);
* subscription-level similarity, so grouping by subscription + VM
  configuration predicts future utilization (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.hardware import ClusterConfig, Fleet, default_clusters
from repro.trace.patterns import (
    SubscriptionProfile,
    SurgeConfig,
    generate_resource_patterns,
    generate_series,
    make_subscription_profile,
    surge_overlay,
    vm_cpu_parameters,
)
from repro.trace.timeseries import (
    SLOTS_PER_DAY,
    SLOTS_PER_HOUR,
    UtilizationSeries,
    slots_for_days,
)
from repro.trace.trace import Trace
from repro.trace.vm import (
    VM_CATALOG,
    AllocationClass,
    Offering,
    Subscription,
    SubscriptionType,
    VMConfig,
    VMRecord,
)


@dataclass
class TraceGeneratorConfig:
    """Knobs of the synthetic trace generator."""

    n_vms: int = 2000
    n_days: int = 14
    n_subscriptions: int = 120
    seed: int = 2024
    #: Fraction of VMs lasting longer than one day (the paper reports 28%).
    long_running_fraction: float = 0.28
    #: Servers per cluster (scales the fleet to the number of VMs).
    servers_per_cluster: int = 20
    #: Mix of archetypes across subscriptions.  Diurnal/nocturnal dominate so
    #: complementary placement has something to exploit.
    archetype_weights: Dict[str, float] = field(default_factory=lambda: {
        "diurnal": 0.32,
        "nocturnal": 0.20,
        "evening-peak": 0.14,
        "constant": 0.16,
        "weekly-batch": 0.10,
        "bursty": 0.08,
    })
    #: Mix of VM configurations for long-running VMs (name -> weight).
    #: Median ends up at 4 cores / 16 GB.
    long_running_config_weights: Dict[str, float] = field(default_factory=lambda: {
        "D2_v5": 0.16, "D4_v5": 0.26, "D8_v5": 0.16, "D16_v5": 0.08,
        "D32_v5": 0.05, "D40_v5": 0.02,
        "E4_v5": 0.06, "E8_v5": 0.06, "E16_v5": 0.04, "E32_v5": 0.02,
        "F4_v2": 0.04, "F8_v2": 0.03, "F16_v2": 0.02,
    })
    #: Mix of VM configurations for short-lived VMs (smaller sizes dominate).
    short_lived_config_weights: Dict[str, float] = field(default_factory=lambda: {
        "D1_v5": 0.22, "D2_v5": 0.30, "D4_v5": 0.24, "D8_v5": 0.10,
        "F2_v2": 0.08, "E2_v5": 0.06,
    })
    #: Fraction of subscriptions that are internal (first-party).
    internal_fraction: float = 0.25
    #: Fraction of VMs backing PaaS offerings.
    paas_fraction: float = 0.3

    # ------------------------------------------------------------------ #
    # Scenario hooks (repro.scenarios).  Every hook below is opt-in and
    # draws RNG only when enabled, so the default configuration's random
    # stream -- and every golden-trace pin built on it -- is unchanged.
    # ------------------------------------------------------------------ #
    #: Explicit fleet shape; ``None`` means the default C1-C10 mix scaled
    #: by ``servers_per_cluster`` (no RNG either way).
    clusters: Optional[List[ClusterConfig]] = None
    #: Allocation-class mix (class value -> weight).  ``None`` leaves every
    #: VM at the :class:`AllocationClass` default without drawing.
    allocation_class_weights: Optional[Dict[str, float]] = None
    #: Correlated diurnal+weekly surge overlay.  Deterministic in the slot
    #: index (see :func:`repro.trace.patterns.surge_overlay`): enabling it
    #: never shifts the random stream.
    surge: Optional[SurgeConfig] = None
    #: Arrival slots of flash-crowd bursts; with ``flash_crowd_fraction``
    #: of VMs redirected (one extra uniform draw + one choice per VM, only
    #: when both are set) to arrive within ``flash_crowd_spread_slots`` of
    #: a burst.
    flash_crowd_slots: Tuple[int, ...] = ()
    flash_crowd_fraction: float = 0.0
    flash_crowd_spread_slots: int = 12

    @property
    def n_slots(self) -> int:
        return slots_for_days(self.n_days)


class TraceGenerator:
    """Generates a reproducible synthetic trace from a configuration."""

    def __init__(self, config: Optional[TraceGeneratorConfig] = None):
        self.config = config or TraceGeneratorConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # Subscriptions
    # ------------------------------------------------------------------ #
    def _make_subscriptions(self) -> Dict[str, tuple[Subscription, SubscriptionProfile,
                                                     List[str]]]:
        """Create subscriptions with a behaviour profile and preferred configs."""
        cfg = self.config
        rng = self._rng
        archetype_names = list(cfg.archetype_weights)
        archetype_probs = np.array([cfg.archetype_weights[a] for a in archetype_names])
        archetype_probs = archetype_probs / archetype_probs.sum()

        subscriptions: Dict[str, tuple[Subscription, SubscriptionProfile, List[str]]] = {}
        long_names = list(cfg.long_running_config_weights)
        long_probs = np.array([cfg.long_running_config_weights[n] for n in long_names])
        long_probs = long_probs / long_probs.sum()

        for index in range(cfg.n_subscriptions):
            sub_id = f"sub-{index:04d}"
            archetype = str(rng.choice(archetype_names, p=archetype_probs))
            internal = rng.random() < cfg.internal_fraction
            test = rng.random() < 0.3
            if internal:
                sub_type = (SubscriptionType.INTERNAL_TEST if test
                            else SubscriptionType.INTERNAL_PRODUCTION)
            else:
                sub_type = (SubscriptionType.EXTERNAL_TEST if test
                            else SubscriptionType.EXTERNAL_PRODUCTION)
            offering = Offering.PAAS if rng.random() < cfg.paas_fraction else Offering.IAAS
            profile = make_subscription_profile(archetype, rng)
            # Each subscription uses a small set of preferred VM configurations,
            # which is what makes the subscription+config grouping predictive.
            n_preferred = int(rng.integers(1, 4))
            preferred = list(rng.choice(long_names, size=n_preferred, replace=False,
                                        p=long_probs))
            subscriptions[sub_id] = (
                Subscription(sub_id, sub_type, archetype, offering), profile, preferred)
        return subscriptions

    # ------------------------------------------------------------------ #
    # Durations and sizes
    # ------------------------------------------------------------------ #
    def _sample_duration_slots(self, long_running: bool) -> int:
        rng = self._rng
        if long_running:
            # 1 to n_days days, biased towards the full horizon so that
            # long-running VMs dominate resource-hours.
            days = float(rng.uniform(1.0, self.config.n_days))
            if rng.random() < 0.45:
                days = float(self.config.n_days)  # runs for the whole trace
            return max(SLOTS_PER_DAY + 1, int(days * SLOTS_PER_DAY))
        # Short-lived: log-uniform between 5 minutes and 1 day.
        log_lo, log_hi = np.log(1), np.log(SLOTS_PER_DAY)
        return max(1, int(np.exp(rng.uniform(log_lo, log_hi))))

    def _sample_config(self, long_running: bool, preferred: Sequence[str]) -> VMConfig:
        rng = self._rng
        cfg = self.config
        if long_running:
            if preferred and rng.random() < 0.8:
                return VM_CATALOG[str(rng.choice(list(preferred)))]
            names = list(cfg.long_running_config_weights)
            probs = np.array([cfg.long_running_config_weights[n] for n in names])
        else:
            names = list(cfg.short_lived_config_weights)
            probs = np.array([cfg.short_lived_config_weights[n] for n in names])
        probs = probs / probs.sum()
        return VM_CATALOG[str(rng.choice(names, p=probs))]

    def _sample_start_slot(self, duration_slots: int) -> int:
        """Arrival slot, biased towards working hours on weekdays."""
        rng = self._rng
        n_slots = self.config.n_slots
        latest = max(0, n_slots - duration_slots)
        if latest == 0:
            return 0
        # Mixture: 70% arrive during the first half of the trace (so that
        # long-running VMs are observable for several days), arrival hour
        # biased towards business hours.
        day = int(rng.integers(0, max(1, min(self.config.n_days,
                                             latest // SLOTS_PER_DAY + 1))))
        hour = float(np.clip(rng.normal(11.0, 5.0), 0.0, 23.9))
        slot = day * SLOTS_PER_DAY + int(hour * SLOTS_PER_HOUR)
        return min(slot, latest)

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def _population(self) -> tuple[Fleet,
                                   Dict[str, tuple[Subscription, SubscriptionProfile,
                                                   List[str]]],
                                   Dict[str, List[str]]]:
        """The trace-wide state drawn *before* the per-VM loop.

        Both :meth:`generate` and :meth:`generate_to_store` consume the RNG
        here first and then call :meth:`_sample_vm` once per index, so the
        two paths draw the identical random stream and produce the same VMs.
        """
        cfg = self.config
        rng = self._rng
        fleet = Fleet(clusters=list(cfg.clusters) if cfg.clusters is not None
                      else default_clusters(cfg.servers_per_cluster))

        subscriptions = self._make_subscriptions()
        cluster_ids = fleet.cluster_ids()
        cluster_probs = np.array(fleet.arrival_weights())
        cluster_probs = cluster_probs / cluster_probs.sum()

        # Subscriptions are sticky to a handful of clusters.  The draw is
        # clamped to the fleet size so explicit small fleets (scenario
        # hook) work; the default fleet has >= 3 clusters, so the clamp
        # never binds there and the stream is unchanged.
        sub_clusters: Dict[str, List[str]] = {}
        for sub_id in subscriptions:
            count = min(int(rng.integers(1, 4)), len(cluster_ids))
            sub_clusters[sub_id] = list(rng.choice(cluster_ids, size=count, replace=False,
                                                   p=cluster_probs))
        return fleet, subscriptions, sub_clusters

    def _sample_vm(self, index: int, sub_ids: List[str],
                   subscriptions: Dict[str, tuple[Subscription, SubscriptionProfile,
                                                  List[str]]],
                   sub_clusters: Dict[str, List[str]]) -> VMRecord:
        """Draw one VM (the body of the per-VM loop; RNG order is the spec)."""
        cfg = self.config
        rng = self._rng
        sub_id = str(rng.choice(sub_ids))
        subscription, profile, preferred = subscriptions[sub_id]
        long_running = rng.random() < cfg.long_running_fraction
        duration = self._sample_duration_slots(long_running)
        start = self._sample_start_slot(duration)
        if cfg.flash_crowd_slots and cfg.flash_crowd_fraction > 0.0:
            # Opt-in draws: redirect a fraction of arrivals to cluster
            # tightly around the configured burst slots.
            if rng.random() < cfg.flash_crowd_fraction:
                burst = int(rng.choice(np.asarray(cfg.flash_crowd_slots)))
                jitter = int(rng.integers(0, max(1, cfg.flash_crowd_spread_slots)))
                start = min(max(0, burst + jitter), cfg.n_slots - 1)
        end = min(start + duration, cfg.n_slots)
        config = self._sample_config(long_running, preferred)
        cluster_id = str(rng.choice(sub_clusters[sub_id]))
        allocation_class = AllocationClass.ON_DEMAND
        if cfg.allocation_class_weights:
            class_names = list(cfg.allocation_class_weights)
            class_probs = np.array([cfg.allocation_class_weights[name]
                                    for name in class_names], dtype=np.float64)
            class_probs = class_probs / class_probs.sum()
            allocation_class = AllocationClass(
                str(rng.choice(class_names, p=class_probs)))

        # Large VMs tend to be somewhat better utilized.
        config_scale = 1.0 + 0.1 * np.log2(max(config.cores, 1)) / 5.0
        cpu_params = vm_cpu_parameters(profile, rng, config_scale=config_scale)
        per_resource = generate_resource_patterns(cpu_params, rng)

        overlay = None
        if cfg.surge is not None:
            overlay = surge_overlay(cfg.surge, end - start, start)
        utilization = {}
        for resource, params in per_resource.items():
            values = generate_series(params, end - start, start, rng)
            if overlay is not None:
                values = np.clip(values * overlay, 0.005, 1.0)
            utilization[resource] = UtilizationSeries(values, start_slot=start)

        return VMRecord(
            vm_id=f"vm-{index:06d}",
            subscription_id=sub_id,
            config=config,
            cluster_id=cluster_id,
            start_slot=start,
            end_slot=end,
            offering=subscription.offering,
            subscription_type=subscription.subscription_type,
            allocation_class=allocation_class,
            utilization=utilization,
        )

    def generate(self) -> Trace:
        cfg = self.config
        fleet, subscriptions, sub_clusters = self._population()
        sub_ids = list(subscriptions)

        vms: List[VMRecord] = [
            self._sample_vm(index, sub_ids, subscriptions, sub_clusters)
            for index in range(cfg.n_vms)
        ]

        trace = Trace(
            vms=vms,
            fleet=fleet,
            n_slots=cfg.n_slots,
            subscriptions={sid: sub for sid, (sub, _p, _c) in subscriptions.items()},
        )
        trace.validate()
        return trace

    def generate_to_store(self, path) -> Path:
        """Generate straight into an on-disk :class:`TraceStore` layout.

        The eager path (``generate()`` then ``trace.store.save(...)``)
        holds every :class:`VMRecord` and the concatenated telemetry
        buffers in RAM at once; this path appends each VM to a
        :class:`~repro.trace.store.TraceStoreBuilder` as it is drawn, so
        peak memory is bounded by one record -- month-scale / million-VM
        traces ingest under a fixed budget.

        Exactness: both paths consume the identical RNG stream
        (``_population`` then ``_sample_vm`` per index), and the builder
        writes the bytes the eager store's ``save`` writes --
        ``tests/test_trace_store_builder.py`` pins this.

        Returns *path*; open the result with ``TraceStore.open(path,
        mmap=True)``.
        """
        # Local import: repro.trace.store imports Trace from this package's
        # sibling module, and the generator is importable without the store.
        from repro.trace.store import TraceStoreBuilder

        cfg = self.config
        fleet, subscriptions, sub_clusters = self._population()
        sub_ids = list(subscriptions)
        known_clusters = set(fleet.cluster_ids())

        with TraceStoreBuilder(
                path, fleet=fleet, n_slots=cfg.n_slots,
                subscriptions={sid: sub for sid, (sub, _p, _c)
                               in subscriptions.items()}) as builder:
            for index in range(cfg.n_vms):
                vm = self._sample_vm(index, sub_ids, subscriptions, sub_clusters)
                # Per-VM twin of Trace.validate() (the whole trace never
                # exists here): record invariants, horizon, known cluster.
                vm.validate()
                if vm.end_slot > cfg.n_slots:
                    raise ValueError(
                        f"VM {vm.vm_id} ends at slot {vm.end_slot}, beyond "
                        f"the {cfg.n_slots}-slot horizon")
                if vm.cluster_id not in known_clusters:
                    raise ValueError(
                        f"VM {vm.vm_id} references unknown cluster "
                        f"{vm.cluster_id!r}")
                builder.append(vm)
        return Path(path)


def generate_trace(n_vms: int = 2000, n_days: int = 14, seed: int = 2024,
                   **kwargs: object) -> Trace:
    """Convenience wrapper: generate a trace with the default configuration."""
    config = TraceGeneratorConfig(n_vms=n_vms, n_days=n_days, seed=seed, **kwargs)  # type: ignore[arg-type]
    return TraceGenerator(config).generate()


def generate_trace_to_store(path, n_vms: int = 2000, n_days: int = 14,
                            seed: int = 2024, **kwargs: object) -> Path:
    """Convenience wrapper: stream a generated trace straight to disk.

    Byte-identical to ``generate_trace(...).store.save(path)``
    for the same parameters, but holds one VM record in memory at a time.
    """
    config = TraceGeneratorConfig(n_vms=n_vms, n_days=n_days, seed=seed, **kwargs)  # type: ignore[arg-type]
    return TraceGenerator(config).generate_to_store(path)


def small_trace(seed: int = 7) -> Trace:
    """A small trace for unit tests and quick examples."""
    return generate_trace(n_vms=200, n_days=7, seed=seed, n_subscriptions=30,
                          servers_per_cluster=4)
