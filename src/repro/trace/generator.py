"""Synthetic Azure-like trace generation.

The paper characterizes two weeks of production telemetry from over one
million opaque VMs.  That trace is proprietary, so this generator produces a
synthetic trace with the same *statistical structure*:

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
from typing import Dict, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.trace.hardware import ClusterConfig, Fleet, default_clusters
from repro.trace.patterns import (
    SlotCalendar,
    SubscriptionProfile,
    SurgeConfig,
    generate_resource_patterns,
    generate_vm_series,
    make_subscription_profile,
    vm_cpu_parameters,
)
from repro.trace.store import TraceStore, TraceStoreBuilder
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


T = TypeVar("T")


class Choice(Generic[T]):
    """One pick from a fixed table, draw for draw what ``Generator.choice``
    returns for one pick from the same table.

    With *weights*, the normalized CDF is built once and a pick locates one
    ``rng.random()`` in it with ``searchsorted(side="right")``: the
    algorithm of ``choice(items, p=weights / weights.sum())``.  Without, a
    pick is ``items[rng.integers(0, len(items))]``: that of ``choice(items)``.
    Either way a pick consumes the stream exactly as ``choice`` would.
    """

    __slots__ = ("items", "_cdf")

    def __init__(self, items: Sequence[T], weights: Optional[Sequence[float]] = None):
        self.items: List[T] = list(items)
        self._cdf: Optional[np.ndarray] = None
        if weights is not None:
            probs = np.asarray(weights, dtype=np.float64)
            total = probs.sum()
            # NaN fails both comparisons, as it fails ``choice``'s checks.
            if not (np.all(probs >= 0.0) and 0.0 < total < np.inf):
                raise ValueError(f"weights must be non-negative with a finite, "
                                 f"positive sum, got {list(weights)}")
            cdf = (probs / total).cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf

    @classmethod
    def weighted(cls, weights: Dict[T, float]) -> "Choice[T]":
        """A table of *weights*' keys, picked with its values as weights."""
        return cls(list(weights), list(weights.values()))

    def pick(self, rng: np.random.Generator) -> T:
        if self._cdf is None:
            return self.items[rng.integers(0, len(self.items))]
        return self.items[self._cdf.searchsorted(rng.random(), side="right")]


@dataclass(frozen=True)
class _Population:
    """What the per-VM loop reads: the trace-wide state drawn before it,
    and the tables every VM picks from or slices, built once per trace."""

    fleet: Fleet
    #: sub_id -> (subscription, behaviour profile, preferred config names).
    subscriptions: Dict[str, Tuple[Subscription, SubscriptionProfile, Choice[str]]]
    sub_ids: Choice[str]
    #: sub_id -> the clusters its VMs land in.
    sub_clusters: Dict[str, Choice[str]]
    calendar: SlotCalendar
    long_configs: Choice[str]
    short_configs: Choice[str]
    #: ``None`` unless the config sets an allocation-class mix.
    classes: Optional[Choice[str]]
    #: ``None`` unless the config turns flash crowds on.
    flash_slots: Optional[Choice[int]]


#: Short-lived VMs last log-uniformly between 5 minutes and 1 day.
_SHORT_LOG_SLOTS = (np.log(1), np.log(SLOTS_PER_DAY))


class TraceGenerator:
    """Generates a reproducible synthetic trace from a configuration.

    Every :meth:`generate` and :meth:`generate_to_store` draws from a fresh
    ``default_rng(config.seed)``, so one instance yields the same trace on
    every call.
    """

    def __init__(self, config: Optional[TraceGeneratorConfig] = None):
        self.config = config or TraceGeneratorConfig()

    # ------------------------------------------------------------------ #
    # Subscriptions
    # ------------------------------------------------------------------ #
    def _make_subscriptions(self, rng: np.random.Generator
                            ) -> Dict[str, Tuple[Subscription, SubscriptionProfile,
                                                 Choice[str]]]:
        """Create subscriptions with a behaviour profile and preferred configs."""
        cfg = self.config
        archetypes = Choice.weighted(cfg.archetype_weights)
        subscriptions: Dict[str, Tuple[Subscription, SubscriptionProfile, Choice[str]]] = {}
        long_names = list(cfg.long_running_config_weights)
        long_probs = np.array([cfg.long_running_config_weights[n] for n in long_names])
        long_probs = long_probs / long_probs.sum()

        for index in range(cfg.n_subscriptions):
            sub_id = f"sub-{index:04d}"
            archetype = archetypes.pick(rng)
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
            preferred = Choice([str(name) for name in rng.choice(
                long_names, size=n_preferred, replace=False, p=long_probs)])
            subscriptions[sub_id] = (
                Subscription(sub_id, sub_type, archetype, offering), profile, preferred)
        return subscriptions

    # ------------------------------------------------------------------ #
    # Durations and sizes
    # ------------------------------------------------------------------ #
    def _sample_duration_slots(self, rng: np.random.Generator,
                               long_running: bool) -> int:
        if long_running:
            # 1 to n_days days, biased towards the full horizon so that
            # long-running VMs dominate resource-hours.
            days = float(rng.uniform(1.0, self.config.n_days))
            if rng.random() < 0.45:
                days = float(self.config.n_days)  # runs for the whole trace
            return max(SLOTS_PER_DAY + 1, int(days * SLOTS_PER_DAY))
        return max(1, int(np.exp(rng.uniform(*_SHORT_LOG_SLOTS))))

    def _sample_config(self, rng: np.random.Generator, population: _Population,
                       long_running: bool, preferred: Choice[str]) -> VMConfig:
        if not long_running:
            return VM_CATALOG[population.short_configs.pick(rng)]
        if rng.random() < 0.8:
            return VM_CATALOG[preferred.pick(rng)]
        return VM_CATALOG[population.long_configs.pick(rng)]

    def _sample_start_slot(self, rng: np.random.Generator, duration_slots: int) -> int:
        """Arrival slot, biased towards working hours on weekdays."""
        n_slots = self.config.n_slots
        latest = max(0, n_slots - duration_slots)
        if latest == 0:
            return 0
        # Mixture: 70% arrive during the first half of the trace (so that
        # long-running VMs are observable for several days), arrival hour
        # biased towards business hours.
        day = int(rng.integers(0, max(1, min(self.config.n_days,
                                             latest // SLOTS_PER_DAY + 1))))
        hour = min(max(rng.normal(11.0, 5.0), 0.0), 23.9)
        slot = day * SLOTS_PER_DAY + int(hour * SLOTS_PER_HOUR)
        return min(slot, latest)

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def _population(self, rng: np.random.Generator) -> _Population:
        """The trace-wide state drawn *before* the per-VM loop, and the
        tables built from the config."""
        cfg = self.config
        fleet = Fleet(clusters=list(cfg.clusters) if cfg.clusters is not None
                      else default_clusters(cfg.servers_per_cluster))

        subscriptions = self._make_subscriptions(rng)
        cluster_ids = fleet.cluster_ids()
        cluster_probs = np.array(fleet.arrival_weights())
        cluster_probs = cluster_probs / cluster_probs.sum()

        # Subscriptions are sticky to a handful of clusters.  The draw is
        # clamped to the fleet size so explicit small fleets (scenario
        # hook) work; the default fleet has >= 3 clusters, so the clamp
        # never binds there and the stream is unchanged.
        sub_clusters: Dict[str, Choice[str]] = {}
        for sub_id in subscriptions:
            count = min(int(rng.integers(1, 4)), len(cluster_ids))
            sub_clusters[sub_id] = Choice([str(cid) for cid in rng.choice(
                cluster_ids, size=count, replace=False, p=cluster_probs)])
        flash_slots = None
        if cfg.flash_crowd_slots and cfg.flash_crowd_fraction > 0.0:
            flash_slots = Choice([int(slot) for slot in cfg.flash_crowd_slots])
        return _Population(
            fleet=fleet,
            subscriptions=subscriptions,
            sub_ids=Choice(list(subscriptions)),
            sub_clusters=sub_clusters,
            calendar=SlotCalendar(cfg.n_slots, cfg.surge),
            long_configs=Choice.weighted(cfg.long_running_config_weights),
            short_configs=Choice.weighted(cfg.short_lived_config_weights),
            classes=(Choice.weighted(cfg.allocation_class_weights)
                     if cfg.allocation_class_weights else None),
            flash_slots=flash_slots,
        )

    def _sample_vm(self, rng: np.random.Generator, population: _Population,
                   index: int) -> VMRecord:
        """Draw one VM (the body of the per-VM loop; RNG order is the spec)."""
        cfg = self.config
        sub_id = population.sub_ids.pick(rng)
        subscription, profile, preferred = population.subscriptions[sub_id]
        long_running = rng.random() < cfg.long_running_fraction
        duration = self._sample_duration_slots(rng, long_running)
        start = self._sample_start_slot(rng, duration)
        if population.flash_slots is not None:
            # Opt-in draws: redirect a fraction of arrivals to cluster
            # tightly around the configured burst slots.
            if rng.random() < cfg.flash_crowd_fraction:
                burst = population.flash_slots.pick(rng)
                jitter = int(rng.integers(0, max(1, cfg.flash_crowd_spread_slots)))
                start = min(max(0, burst + jitter), cfg.n_slots - 1)
        end = min(start + duration, cfg.n_slots)
        config = self._sample_config(rng, population, long_running, preferred)
        cluster_id = population.sub_clusters[sub_id].pick(rng)
        allocation_class = AllocationClass.ON_DEMAND
        if population.classes is not None:
            allocation_class = AllocationClass(population.classes.pick(rng))

        # Large VMs tend to be somewhat better utilized.
        config_scale = 1.0 + 0.1 * float(np.log2(max(config.cores, 1))) / 5.0
        cpu_params = vm_cpu_parameters(profile, rng, config_scale=config_scale)
        per_resource = generate_resource_patterns(cpu_params, rng)
        values = generate_vm_series(list(per_resource.values()),
                                    population.calendar, start, end - start, rng)

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
            utilization=dict(zip(per_resource,
                                 UtilizationSeries.from_rows(values, start))),
        )

    def _draw(self) -> Tuple[Fleet, Dict[str, Subscription],
                             Iterator[VMRecord]]:
        """The fleet, the subscriptions and the VMs, drawn lazily.

        The one VM loop behind :meth:`generate` and
        :meth:`generate_to_store`: it seeds a fresh random stream, draws
        the trace-wide state, then each VM as the returned iterator is
        advanced, so both paths, and every call of either, consume the
        identical random stream and produce the same VMs while holding one
        record at a time.
        """
        rng = np.random.default_rng(self.config.seed)
        population = self._population(rng)
        vms = (self._sample_vm(rng, population, index)
               for index in range(self.config.n_vms))
        return (population.fleet,
                {sid: sub for sid, (sub, _p, _c)
                 in population.subscriptions.items()}, vms)

    def generate(self) -> Trace:
        """Generate the trace in RAM.

        Each VM is handed to the store's row encoder as it is drawn, so no
        list of records lives beside the telemetry buffers.
        """
        fleet, subscriptions, vms = self._draw()
        return TraceStore.from_records(
            vms, fleet=fleet, n_slots=self.config.n_slots,
            subscriptions=subscriptions).as_trace()

    def generate_to_store(self, path) -> Path:
        """Generate straight into an on-disk :class:`TraceStore` layout.

        :meth:`generate` holds the whole telemetry buffers in RAM; this path
        appends each VM to a :class:`~repro.trace.store.TraceStoreBuilder`
        as it is drawn, so peak memory is bounded by one record --
        month-scale / million-VM traces ingest under a fixed budget.

        Exactness: both paths draw from one VM loop (:meth:`_draw`) and
        encode rows with one encoder, and the builder writes the bytes the
        eager store's ``save`` writes -- ``tests/test_trace_store_builder.py``
        pins this.

        Returns *path*; open the result with ``TraceStore.open(path,
        mmap=True)``.
        """
        fleet, subscriptions, vms = self._draw()
        with TraceStoreBuilder(path, fleet=fleet, n_slots=self.config.n_slots,
                               subscriptions=subscriptions) as builder:
            for vm in vms:
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
