"""Named, seeded scenarios composed from the orthogonal axes.

A :class:`Scenario` is pure configuration: it yields a generator config
(:meth:`Scenario.generator_config`), a simulation config
(:meth:`Scenario.simulation_config`), and the set of invariants the run is
expected to satisfy -- :mod:`repro.scenarios.runner` executes it and
:mod:`tests.test_golden_scenarios` pins its fingerprint.  Scenarios are
sized to finish in seconds so the whole registry can run in one test
session.

All randomness derives from ``seed`` via :func:`repro.scenarios.axes.derive_seed`
(REP008): the trace uses the ``"trace"`` sub-stream, failure injection the
``"failures"`` sub-stream, so axes toggle independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.scenarios.axes import FailurePlan, derive_seed, memory_rich_fleet, skewed_fleet
from repro.simulator.engine import SimulationConfig
from repro.trace.generator import TraceGeneratorConfig
from repro.trace.hardware import ClusterConfig, default_clusters
from repro.trace.patterns import SurgeConfig
from repro.trace.timeseries import slots_for_days

__all__ = ["Scenario", "SCENARIOS", "get_scenario", "scenario_names"]

#: Invariants every scenario must satisfy (see runner.INVARIANTS).
_BASE_INVARIANTS = ("counts-consistent", "ledger-nonnegative")


@dataclass(frozen=True)
class Scenario:
    """One named replay experiment: trace shape + dynamics + failures."""

    name: str
    description: str
    seed: int = 727
    n_vms: int = 400
    n_days: int = 7
    n_subscriptions: int = 40
    servers_per_cluster: int = 6
    #: Explicit fleet (fleet-shape axis); ``None`` = the default C1-C10 mix.
    fleet: Optional[Tuple[ClusterConfig, ...]] = None
    #: Allocation-class mix (workload-mix axis); ``None`` = all on-demand.
    #: The scheduler reads each VM's class: reserved arrivals may preempt
    #: spot VMs.
    allocation_class_weights: Optional[Dict[str, float]] = None
    #: Demand-dynamics axis: deterministic surge overlay + arrival bursts.
    surge: Optional[SurgeConfig] = None
    flash_crowd_slots: Tuple[int, ...] = ()
    flash_crowd_fraction: float = 0.0
    #: Failure-injection axis.
    failures: FailurePlan = field(default_factory=FailurePlan)
    #: Invariant names (runner.INVARIANTS keys) this scenario must satisfy.
    expected_invariants: Tuple[str, ...] = _BASE_INVARIANTS

    @property
    def n_slots(self) -> int:
        return slots_for_days(self.n_days)

    def clusters(self) -> List[ClusterConfig]:
        """The fleet this scenario simulates (explicit or default)."""
        if self.fleet is not None:
            return list(self.fleet)
        return default_clusters(self.servers_per_cluster)

    def generator_config(self) -> TraceGeneratorConfig:
        return TraceGeneratorConfig(
            n_vms=self.n_vms,
            n_days=self.n_days,
            n_subscriptions=self.n_subscriptions,
            seed=derive_seed(self.seed, "trace"),
            servers_per_cluster=self.servers_per_cluster,
            clusters=list(self.fleet) if self.fleet is not None else None,
            allocation_class_weights=(
                dict(self.allocation_class_weights)
                if self.allocation_class_weights is not None else None),
            surge=self.surge,
            flash_crowd_slots=self.flash_crowd_slots,
            flash_crowd_fraction=self.flash_crowd_fraction,
        )

    def simulation_config(self) -> SimulationConfig:
        return SimulationConfig(
            placement_start_slot=0,
            failure_events=self.failures.materialize(
                self.seed, self.clusters(), self.n_slots),
        )


#: All-on-demand scenarios have no spot VM to preempt.
_ON_DEMAND_INVARIANTS = _BASE_INVARIANTS + ("no-preemptions",)
_FAILURE_INVARIANTS = _BASE_INVARIANTS + ("failed-servers-empty",)

_SPOT_HEAVY_MIX = {
    "reserved": 0.15, "on-demand": 0.25, "spot": 0.5, "burstable": 0.1,
}
_RESERVED_HEAVY_MIX = {
    "reserved": 0.5, "on-demand": 0.3, "spot": 0.15, "burstable": 0.05,
}

#: The scenario registry, keyed by name.  Keep ``baseline`` first: it is
#: the axes-all-off reference the other fingerprints are read against.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="baseline",
            description="All axes off: default fleet, on-demand only, "
                        "no dynamics, no failures.",
            expected_invariants=_ON_DEMAND_INVARIANTS,
        ),
        Scenario(
            name="heterogeneous-fleet",
            description="Skewed three-cluster fleet mixing all hardware "
                        "generations (fleet-shape axis only).",
            fleet=tuple(skewed_fleet(8)),
            expected_invariants=_ON_DEMAND_INVARIANTS,
        ),
        Scenario(
            name="reserved-heavy",
            description="Reserved-dominated workload mix: preemption "
                        "pressure without churn.",
            n_vms=500,
            allocation_class_weights=_RESERVED_HEAVY_MIX,
        ),
        Scenario(
            name="spot-market",
            description="Spot-dominated workload mix on a small "
                        "memory-rich fleet: reserved arrivals must preempt "
                        "to land.",
            n_vms=600,
            fleet=tuple(memory_rich_fleet(4)),
            allocation_class_weights=_SPOT_HEAVY_MIX,
        ),
        Scenario(
            name="diurnal-surge",
            description="Correlated diurnal + weekly demand surge overlay "
                        "(demand-dynamics axis, deterministic in the slot).",
            surge=SurgeConfig(daily_amplitude=0.6, peak_hour=14.0,
                              weekly_amplitude=0.3, peak_weekday=1),
            expected_invariants=_ON_DEMAND_INVARIANTS,
        ),
        Scenario(
            name="flash-crowd",
            description="A third of arrivals collapse onto two burst "
                        "instants (demand-dynamics axis).",
            flash_crowd_slots=(2 * 288 + 150, 5 * 288 + 60),
            flash_crowd_fraction=0.35,
            expected_invariants=_ON_DEMAND_INVARIANTS,
        ),
        Scenario(
            name="drain-storm",
            description="Six seeded server drains force mass re-placement "
                        "through the batch path (failure axis).",
            failures=FailurePlan(n_drains=6, start_slot=288),
            expected_invariants=_FAILURE_INVARIANTS + ("no-preemptions",),
        ),
        Scenario(
            name="crash-heavy",
            description="Five seeded crashes: residents are lost and their "
                        "servers leave the pool (failure axis).",
            failures=FailurePlan(n_crashes=5, start_slot=288),
            expected_invariants=_FAILURE_INVARIANTS + ("no-preemptions",),
        ),
        Scenario(
            name="spot-churn-with-crashes",
            description="Everything on: spot-heavy workload mix, "
                        "surge + flash crowd, drains and crashes on a "
                        "skewed fleet.",
            n_vms=600,
            fleet=tuple(skewed_fleet(6)),
            allocation_class_weights=_SPOT_HEAVY_MIX,
            surge=SurgeConfig(daily_amplitude=0.5, peak_hour=13.0,
                              weekly_amplitude=0.25, peak_weekday=2),
            flash_crowd_slots=(3 * 288 + 96,),
            flash_crowd_fraction=0.25,
            failures=FailurePlan(n_drains=3, n_crashes=2, start_slot=288),
            expected_invariants=_FAILURE_INVARIANTS,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_names() -> List[str]:
    return list(SCENARIOS)
