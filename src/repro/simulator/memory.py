"""Server memory model: PA/VA pools, backing store, trimming and migration.

This is the substrate that stands in for Hyper-V's memory management in the
paper's testbed experiments.  Each server partitions its physical memory into

* per-VM **PA pools** (the guaranteed portions, statically mapped),
* a shared **oversubscribed pool** backing the VMs' VA portions on demand,
* **unallocated** memory (free for new VMs or for extending the pool), and
* a small host reservation.

When VM demand spills beyond its PA portion, backing is taken from the
oversubscribed pool; when the pool is exhausted the spill goes to the backing
store (disk) -- those are the page faults that degrade performance.  The
mitigation engine frees pool space by trimming cold memory (1.1 GB/s),
extending the pool from unallocated memory (15.7 GB/s), or live-migrating a
VM away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.coachvm import CoachVM
from repro.core.mitigation import MIGRATION_BANDWIDTH_GBPS

#: Effective paging bandwidth to the NVMe backing store in GB/s.  Spill that
#: cannot be backed by physical memory moves at this rate, which is what makes
#: unmitigated contention so painful.
PAGING_BANDWIDTH_GBPS = 0.5


@dataclass
class DemandOutcome:
    """Result of applying one interval's memory demand to a server."""

    page_fault_gb: float = 0.0
    unbacked_gb: float = 0.0
    per_vm_fault_gb: Dict[str, float] = field(default_factory=dict)
    per_vm_unbacked_gb: Dict[str, float] = field(default_factory=dict)
    completed_migrations: List[str] = field(default_factory=list)


@dataclass
class _Migration:
    vm_id: str
    remaining_gb: float


class ServerMemoryModel:
    """Physical-memory accounting for one oversubscribed server."""

    def __init__(self, capacity_gb: float, host_reserved_gb: float = 4.0,
                 oversub_pool_gb: float = 0.0):
        if capacity_gb <= 0:
            raise ValueError("capacity must be positive")
        if host_reserved_gb < 0 or host_reserved_gb >= capacity_gb:
            raise ValueError("host reservation must be within capacity")
        self.capacity_gb = float(capacity_gb)
        self.host_reserved_gb = float(host_reserved_gb)
        self.oversub_pool_gb = float(oversub_pool_gb)
        self.vms: Dict[str, CoachVM] = {}
        self._migrations: Dict[str, _Migration] = {}
        self._last_demands: Dict[str, float] = {}
        self._last_unbacked: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Capacity accounting
    # ------------------------------------------------------------------ #
    @property
    def pa_allocated_gb(self) -> float:
        return sum(vm.memory.pa_gb for vm in self.vms.values())

    @property
    def oversub_used_gb(self) -> float:
        return sum(vm.memory.va_backed_gb for vm in self.vms.values())

    @property
    def oversub_available_gb(self) -> float:
        return max(0.0, self.oversub_pool_gb - self.oversub_used_gb)

    def unallocated_gb(self) -> float:
        return max(0.0, self.capacity_gb - self.host_reserved_gb
                   - self.pa_allocated_gb - self.oversub_pool_gb)

    # ------------------------------------------------------------------ #
    # VM lifecycle
    # ------------------------------------------------------------------ #
    def add_vm(self, vm: CoachVM, back_initially: bool = False) -> None:
        """Place a CoachVM on the server.

        The VM's PA portion must fit in unallocated memory.  Its VA portion is
        *not* backed up-front unless ``back_initially`` is set -- backing is
        granted on demand from the oversubscribed pool.
        """
        if vm.vm_id in self.vms:
            raise ValueError(f"VM {vm.vm_id} is already on this server")
        if vm.memory.pa_gb > self.unallocated_gb() + 1e-9:
            raise ValueError(
                f"not enough unallocated memory for the PA portion of {vm.vm_id}: "
                f"need {vm.memory.pa_gb:.1f} GB, have {self.unallocated_gb():.1f} GB")
        if not back_initially:
            vm.memory.va_backed_gb = 0.0
        self.vms[vm.vm_id] = vm

    def remove_vm(self, vm_id: str) -> CoachVM:
        try:
            vm = self.vms.pop(vm_id)
        except KeyError as exc:
            raise KeyError(f"VM {vm_id} is not on this server") from exc
        self._migrations.pop(vm_id, None)
        self._last_demands.pop(vm_id, None)
        self._last_unbacked.pop(vm_id, None)
        return vm

    # ------------------------------------------------------------------ #
    # Demand application
    # ------------------------------------------------------------------ #
    def apply_demands(self, demands_gb: Dict[str, float], dt_seconds: float) -> DemandOutcome:
        """Apply one interval's per-VM memory demand.

        Backing for demand spilling beyond each VM's PA portion is granted
        from the oversubscribed pool while it lasts; the rest pages against
        the backing store at :data:`PAGING_BANDWIDTH_GBPS`.
        """
        outcome = DemandOutcome()
        self._advance_migrations(dt_seconds, outcome)

        for vm_id, demand in demands_gb.items():
            vm = self.vms.get(vm_id)
            if vm is None:
                continue
            demand = float(max(0.0, min(demand, vm.memory.total_gb)))
            self._last_demands[vm_id] = demand
            need = vm.unbacked_demand_gb(demand)
            if need > 0.0:
                granted = min(need, self.oversub_available_gb,
                              vm.memory.va_unbacked_gb)
                if granted > 0.0:
                    vm.back_va(granted)
                    need -= granted
            unbacked = need
            self._last_unbacked[vm_id] = unbacked
            fault = min(unbacked, PAGING_BANDWIDTH_GBPS * dt_seconds)
            outcome.per_vm_fault_gb[vm_id] = fault
            outcome.per_vm_unbacked_gb[vm_id] = unbacked
            outcome.page_fault_gb += fault
            outcome.unbacked_gb += unbacked
            vm.update_cold_memory(demand)
        return outcome

    def _advance_migrations(self, dt_seconds: float, outcome: DemandOutcome) -> None:
        finished: List[str] = []
        for migration in self._migrations.values():
            migration.remaining_gb -= MIGRATION_BANDWIDTH_GBPS * dt_seconds
            if migration.remaining_gb <= 0:
                finished.append(migration.vm_id)
        for vm_id in finished:
            self.remove_vm(vm_id)
            outcome.completed_migrations.append(vm_id)

    # ------------------------------------------------------------------ #
    # Mitigation hooks (MemoryManager protocol)
    # ------------------------------------------------------------------ #
    def oversub_shortfall_gb(self) -> float:
        """Memory currently demanded but without physical backing."""
        return float(sum(self._last_unbacked.values()))

    def trimmable_gb(self) -> float:
        return float(sum(min(vm.cold_memory_gb, vm.memory.va_backed_gb)
                         for vm in self.vms.values()))

    def trim_cold_memory(self, amount_gb: float) -> float:
        """Trim cold VA-backed memory across VMs, largest cold share first."""
        remaining = float(amount_gb)
        freed = 0.0
        candidates = sorted(self.vms.values(),
                            key=lambda vm: min(vm.cold_memory_gb, vm.memory.va_backed_gb),
                            reverse=True)
        for vm in candidates:
            if remaining <= 1e-9:
                break
            trimmed = vm.trim(remaining)
            freed += trimmed
            remaining -= trimmed
        return freed

    def extend_pool(self, amount_gb: float) -> float:
        addable = min(float(amount_gb), self.unallocated_gb())
        if addable <= 0:
            return 0.0
        self.oversub_pool_gb += addable
        return addable

    def migration_candidates(self) -> List[str]:
        """VMs ranked by how much contention migrating them would relieve.

        The paper picks VMs by their potential to remedy contention (busier
        VMs first) weighed against migration overhead (larger VMs take
        longer); VMs already migrating are excluded.
        """
        scored = []
        for vm_id, vm in self.vms.items():
            if vm_id in self._migrations:
                continue
            demand = self._last_demands.get(vm_id, 0.0)
            over_use = max(0.0, demand - vm.memory.pa_gb)
            size_penalty = vm.memory.total_gb / 64.0
            scored.append((over_use - size_penalty, vm_id))
        scored.sort(reverse=True)
        return [vm_id for _score, vm_id in scored]

    def start_migration(self, vm_id: str) -> float:
        """Begin live-migrating a VM; returns the expected duration in seconds."""
        vm = self.vms.get(vm_id)
        if vm is None:
            raise KeyError(f"VM {vm_id} is not on this server")
        if vm_id in self._migrations:
            return self._migrations[vm_id].remaining_gb / MIGRATION_BANDWIDTH_GBPS
        # Cold VA memory must be paged in before the pre-copy phase can move it.
        to_copy = vm.memory.pa_gb + vm.memory.va_backed_gb + vm.cold_memory_gb
        self._migrations[vm_id] = _Migration(vm_id, to_copy)
        return to_copy / MIGRATION_BANDWIDTH_GBPS
