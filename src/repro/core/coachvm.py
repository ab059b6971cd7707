"""CoachVM: the general-purpose oversubscribed VM type (Section 3.2).

A CoachVM partitions every resource into a *guaranteed* portion (always
allocated, PA-backed for memory) and an *oversubscribed* portion (allocated
on demand from a shared pool, VA-backed for memory and exposed to the guest
as a zero-core NUMA node so unmodified guests deprioritise it).  The class
below carries that partition plus the runtime state the server agent needs:
how much of the VA portion is currently backed, how much memory is cold and
trimmable, and the VM's current demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.windows import VMResourcePlan
from repro.trace.vm import VMConfig, VMRecord


@dataclass
class MemorySplit:
    """The PA/VA split of one CoachVM's memory space, in GB."""

    pa_gb: float
    va_gb: float
    #: How much physical memory currently backs the VA portion.
    va_backed_gb: float = 0.0

    @property
    def total_gb(self) -> float:
        return self.pa_gb + self.va_gb

    @property
    def va_unbacked_gb(self) -> float:
        return max(0.0, self.va_gb - self.va_backed_gb)

    def validate(self) -> None:
        if self.pa_gb < -1e-9 or self.va_gb < -1e-9:
            raise ValueError("negative memory split")
        if self.va_backed_gb > self.va_gb + 1e-6:
            raise ValueError("VA backing exceeds the VA portion")


@dataclass
class CoachVM:
    """A VM admitted by Coach, with its resource plan and runtime state."""

    vm: VMRecord
    plan: VMResourcePlan
    memory: MemorySplit
    #: Per-resource guaranteed portions (absolute units).
    guaranteed: Dict[Resource, float] = field(default_factory=dict)
    #: Server hosting this VM (set by the scheduler).
    server_id: Optional[str] = None
    #: Amount of memory the guest currently holds that is cold (trimmable), GB.
    cold_memory_gb: float = 0.0

    def __post_init__(self) -> None:
        if not self.guaranteed:
            self.guaranteed = {r: self.plan.plans[r].guaranteed for r in ALL_RESOURCES}
        self.memory.validate()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(cls, vm: VMRecord, plan: VMResourcePlan,
                  initial_va_backing_fraction: float = 1.0) -> "CoachVM":
        """Build a CoachVM from its resource plan.

        The VA portion is the difference between the requested memory and the
        guaranteed (PA) portion; initially it is backed by
        ``initial_va_backing_fraction`` of its size (the paper backs ~70% in
        the Figure 15 study, and the multiplexed pool at runtime).
        """
        memory_plan = plan.plans[Resource.MEMORY]
        pa_gb = memory_plan.guaranteed
        va_gb = max(0.0, memory_plan.requested - pa_gb)
        split = MemorySplit(pa_gb=pa_gb, va_gb=va_gb,
                            va_backed_gb=va_gb * float(initial_va_backing_fraction))
        return cls(vm=vm, plan=plan, memory=split)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def vm_id(self) -> str:
        return self.vm.vm_id

    @property
    def config(self) -> VMConfig:
        return self.vm.config

    @property
    def is_oversubscribed(self) -> bool:
        """Whether the VM has a VA portion: the paper's oversubscribed VM
        (Section 3.2), whose memory beyond the guaranteed PA portion is
        backed on demand."""
        return self.plan.oversubscribed and self.memory.va_gb > 0.0

    def requested(self, resource: Resource) -> float:
        return self.plan.plans[resource].requested

    def oversubscribed_portion(self, resource: Resource) -> float:
        return max(0.0, self.requested(resource) - self.guaranteed.get(resource, 0.0))

    def oversubscription_rate(self, resource: Resource) -> float:
        """Fraction of the requested allocation that is oversubscribed."""
        requested = self.requested(resource)
        if requested <= 0:
            return 0.0
        return self.oversubscribed_portion(resource) / requested

    # ------------------------------------------------------------------ #
    # Runtime memory accounting
    # ------------------------------------------------------------------ #
    def memory_demand_gb(self, slot: int) -> float:
        """The VM's actual memory demand at a trace slot (absolute GB)."""
        return self.vm.demand_at(Resource.MEMORY, slot)

    def memory_pressure_gb(self, demand_gb: float) -> float:
        """Demand that spills beyond the PA portion into VA-backed memory."""
        return max(0.0, demand_gb - self.memory.pa_gb)

    def unbacked_demand_gb(self, demand_gb: float) -> float:
        """Demand that currently has no physical backing (would page); the
        server memory model grants backing for it from the pool."""
        spill = self.memory_pressure_gb(demand_gb)
        return max(0.0, spill - self.memory.va_backed_gb)

    def update_cold_memory(self, demand_gb: float) -> None:
        """Refresh the cold (trimmable) memory estimate.

        Memory the guest holds but has not touched recently is assumed cold;
        we approximate it as the backed memory beyond current demand.
        """
        backed = self.memory.pa_gb + self.memory.va_backed_gb
        self.cold_memory_gb = max(0.0, backed - demand_gb)

    def trim(self, amount_gb: float) -> float:
        """Trim cold VA-backed memory, returning how much was actually freed."""
        trimmable = min(amount_gb, self.cold_memory_gb, self.memory.va_backed_gb)
        if trimmable <= 0:
            return 0.0
        self.memory.va_backed_gb -= trimmable
        self.cold_memory_gb -= trimmable
        return trimmable

    def back_va(self, amount_gb: float) -> float:
        """Add physical backing to the VA portion, returning the amount applied."""
        addable = min(amount_gb, self.memory.va_unbacked_gb)
        if addable <= 0:
            return 0.0
        self.memory.va_backed_gb += addable
        return addable

    def __repr__(self) -> str:
        return (
            f"CoachVM({self.vm_id}, {self.config.name}, PA={self.memory.pa_gb:.1f}GB, "
            f"VA={self.memory.va_gb:.1f}GB, backed={self.memory.va_backed_gb:.1f}GB)"
        )
