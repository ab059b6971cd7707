"""VM records, VM configurations (sizes), and customer subscriptions.

The trace schema mirrors the paper's methodology (Section 2): for every VM
we record allocation/deallocation times, the resource allocation, the server
it runs on, and the maximum utilization of CPU, memory, network and storage
in every 5-minute interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.core.resources import ALL_RESOURCES, Resource, ResourceVector
from repro.trace.timeseries import SLOTS_PER_DAY, UtilizationSeries


class Offering(str, Enum):
    """Whether a VM backs a PaaS service or is sold directly as IaaS."""

    IAAS = "iaas"
    PAAS = "paas"


class SubscriptionType(str, Enum):
    """Coarse customer classification used as a prediction feature."""

    EXTERNAL_PRODUCTION = "external-production"
    EXTERNAL_TEST = "external-test"
    INTERNAL_PRODUCTION = "internal-production"
    INTERNAL_TEST = "internal-test"


class AllocationClass(str, Enum):
    """Commercial allocation class of a VM, ordered by eviction priority.

    ``RESERVED`` capacity may preempt ``SPOT`` VMs at admission (see
    :meth:`repro.core.scheduler.ClusterScheduler.place`); ``ON_DEMAND``
    and ``BURSTABLE`` neither preempt nor get preempted.
    """

    RESERVED = "reserved"
    ON_DEMAND = "on-demand"
    SPOT = "spot"
    BURSTABLE = "burstable"


@dataclass(frozen=True)
class VMConfig:
    """A sellable VM size (e.g. ``D4_v5``: 4 cores, 16 GB)."""

    name: str
    cores: int
    memory_gb: int
    network_gbps: float
    ssd_gb: int
    family: str = "general-purpose"

    def allocation_vector(self) -> ResourceVector:
        return ResourceVector.of(
            cpu=float(self.cores),
            memory=float(self.memory_gb),
            network=float(self.network_gbps),
            ssd=float(self.ssd_gb),
        )

    @property
    def gb_per_core(self) -> float:
        return self.memory_gb / self.cores


def _general(cores: int) -> VMConfig:
    return VMConfig(
        name=f"D{cores}_v5",
        cores=cores,
        memory_gb=cores * 4,
        network_gbps=min(0.5 * cores, 16.0),
        ssd_gb=32 * cores,
        family="general-purpose",
    )


def _memory_optimized(cores: int) -> VMConfig:
    return VMConfig(
        name=f"E{cores}_v5",
        cores=cores,
        memory_gb=cores * 8,
        network_gbps=min(0.5 * cores, 16.0),
        ssd_gb=48 * cores,
        family="memory-optimized",
    )


def _compute_optimized(cores: int) -> VMConfig:
    return VMConfig(
        name=f"F{cores}_v2",
        cores=cores,
        memory_gb=cores * 2,
        network_gbps=min(0.75 * cores, 16.0),
        ssd_gb=16 * cores,
        family="compute-optimized",
    )


#: The VM size catalogue used by the trace generator.  The general-purpose
#: D-series (4 GB/core) is the paper's "most typical VM configuration" and is
#: the shape used for the hypothetical stranding fill (Section 2.2).
VM_CATALOG: Dict[str, VMConfig] = {
    cfg.name: cfg
    for cfg in (
        [_general(c) for c in (1, 2, 4, 8, 16, 32, 40)]
        + [_memory_optimized(c) for c in (2, 4, 8, 16, 32)]
        + [_compute_optimized(c) for c in (2, 4, 8, 16, 32)]
    )
}

#: The canonical fill shape used when measuring stranding.
TYPICAL_VM_CONFIG = VM_CATALOG["D4_v5"]


@dataclass(frozen=True)
class Subscription:
    """A customer subscription: the unit of history-based prediction."""

    subscription_id: str
    subscription_type: SubscriptionType
    #: Temporal archetype name shared by the subscription's workloads
    #: (see :mod:`repro.trace.patterns`).
    archetype: str
    offering: Offering


@dataclass
class VMRecord:
    """One VM in a trace: allocation, placement, and utilization history."""

    vm_id: str
    subscription_id: str
    config: VMConfig
    cluster_id: str
    start_slot: int
    end_slot: int
    offering: Offering = Offering.IAAS
    subscription_type: SubscriptionType = SubscriptionType.EXTERNAL_PRODUCTION
    allocation_class: AllocationClass = AllocationClass.ON_DEMAND
    server_id: Optional[str] = None
    utilization: Dict[Resource, UtilizationSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_slot <= self.start_slot:
            raise ValueError("VM must live for at least one slot")

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #
    @property
    def lifetime_slots(self) -> int:
        return self.end_slot - self.start_slot

    @property
    def lifetime_hours(self) -> float:
        return self.lifetime_slots / (SLOTS_PER_DAY / 24)

    @property
    def lifetime_days(self) -> float:
        return self.lifetime_slots / SLOTS_PER_DAY

    def is_long_running(self, min_days: float = 1.0) -> bool:
        """VMs lasting more than one day are the paper's oversubscription focus."""
        return self.lifetime_days > min_days

    def alive_at(self, slot: int) -> bool:
        return self.start_slot <= slot < self.end_slot

    @property
    def creation_weekday(self) -> int:
        """Weekday of allocation (0 = Monday), assuming the trace starts on Monday."""
        return (self.start_slot // SLOTS_PER_DAY) % 7

    # ------------------------------------------------------------------ #
    # Allocation / utilization
    # ------------------------------------------------------------------ #
    def allocation_vector(self) -> ResourceVector:
        return self.config.allocation_vector()

    def allocated(self, resource: Resource) -> float:
        return self.allocation_vector()[resource]

    def resource_hours(self, resource: Resource) -> float:
        """Allocated amount weighted by lifetime, in unit-hours."""
        return self.allocated(resource) * self.lifetime_hours

    def series(self, resource: Resource) -> UtilizationSeries:
        try:
            return self.utilization[resource]
        except KeyError as exc:
            raise KeyError(
                f"VM {self.vm_id} has no utilization series for {resource}"
            ) from exc

    def has_utilization(self) -> bool:
        return all(r in self.utilization for r in ALL_RESOURCES)

    def mean_utilization(self, resource: Resource) -> float:
        return self.series(resource).mean()

    def max_utilization(self, resource: Resource) -> float:
        return self.series(resource).maximum()

    def demand_at(self, resource: Resource, slot: int) -> float:
        """Absolute demand (allocated * utilization fraction) at a slot."""
        series = self.series(resource)
        if not series.covers_slot(slot):
            return 0.0
        return series.value_at(slot) * self.allocated(resource)

    def __repr__(self) -> str:
        return (
            f"VMRecord({self.vm_id}, {self.config.name}, cluster={self.cluster_id}, "
            f"slots=[{self.start_slot}, {self.end_slot}))"
        )
