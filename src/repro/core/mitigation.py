"""Contention mitigation policies and engine (Section 3.4, Figure 21).

Mitigations escalate from cheap and local to expensive and global:

1. **Trim** -- write cold VA-backed pages to the backing store to free
   physical memory (measured trim bandwidth ~1.1 GB/s).
2. **Extend** -- grow the oversubscribed pool with unallocated server memory
   (~15.7 GB/s, no cold data has to be written).
3. **Migrate** -- live-migrate a VM off the server; the most expensive option
   because cold memory must be paged in and copied first.

Each step can be triggered *reactively* (after the monitoring component
detects contention) or *proactively* (when the prediction component forecasts
it).  The policy names match the Figure 21 legend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Protocol

#: Bandwidths measured in Section 4.5.
TRIM_BANDWIDTH_GBPS = 1.1
EXTEND_BANDWIDTH_GBPS = 15.7
#: Live-migration effective bandwidth (network bound).
MIGRATION_BANDWIDTH_GBPS = 3.0


class MitigationAction(str, Enum):
    TRIM = "trim"
    EXTEND = "extend"
    MIGRATE = "migrate"


class TriggerMode(str, Enum):
    REACTIVE = "reactive"
    PROACTIVE = "proactive"


@dataclass(frozen=True)
class MitigationPolicy:
    """Which mitigations are allowed and how they are triggered."""

    name: str
    allow_trim: bool = False
    allow_extend: bool = False
    allow_migrate: bool = False
    mode: TriggerMode = TriggerMode.REACTIVE

    @property
    def proactive(self) -> bool:
        return self.mode is TriggerMode.PROACTIVE

    @property
    def enabled(self) -> bool:
        return self.allow_trim or self.allow_extend or self.allow_migrate


def _policy(name: str, trim: bool, extend: bool, migrate: bool,
            mode: TriggerMode) -> MitigationPolicy:
    return MitigationPolicy(name, trim, extend, migrate, mode)


#: The seven policies compared in Figure 21.
MITIGATION_POLICIES: Dict[str, MitigationPolicy] = {
    "none": MitigationPolicy("none"),
    "trim-reactive": _policy("trim-reactive", True, False, False, TriggerMode.REACTIVE),
    "trim-proactive": _policy("trim-proactive", True, False, False, TriggerMode.PROACTIVE),
    "extend-reactive": _policy("extend-reactive", True, True, False, TriggerMode.REACTIVE),
    "extend-proactive": _policy("extend-proactive", True, True, False, TriggerMode.PROACTIVE),
    "migrate-reactive": _policy("migrate-reactive", True, False, True, TriggerMode.REACTIVE),
    "migrate-proactive": _policy("migrate-proactive", True, False, True, TriggerMode.PROACTIVE),
}


def mitigation_policy(name: str) -> MitigationPolicy:
    try:
        return MITIGATION_POLICIES[name.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown mitigation policy {name!r}; "
                       f"expected one of {sorted(MITIGATION_POLICIES)}") from exc


@dataclass
class MitigationResult:
    """What one mitigation cycle accomplished."""

    actions: List[MitigationAction] = field(default_factory=list)
    trimmed_gb: float = 0.0
    extended_gb: float = 0.0
    migrated_vm: Optional[str] = None
    freed_gb: float = 0.0

    def merge(self, other: "MitigationResult") -> "MitigationResult":
        return MitigationResult(
            actions=self.actions + other.actions,
            trimmed_gb=self.trimmed_gb + other.trimmed_gb,
            extended_gb=self.extended_gb + other.extended_gb,
            migrated_vm=other.migrated_vm or self.migrated_vm,
            freed_gb=self.freed_gb + other.freed_gb,
        )


class MemoryManager(Protocol):
    """The subset of the server memory model the mitigation engine drives.

    Implemented by :class:`repro.simulator.memory.ServerMemoryModel`.
    """

    def oversub_shortfall_gb(self) -> float: ...

    def trimmable_gb(self) -> float: ...

    def trim_cold_memory(self, amount_gb: float) -> float: ...

    def unallocated_gb(self) -> float: ...

    def extend_pool(self, amount_gb: float) -> float: ...

    def migration_candidates(self) -> List[str]: ...

    def start_migration(self, vm_id: str) -> float: ...


class MitigationEngine:
    """Executes a mitigation policy against a server memory model."""

    def __init__(self, policy: MitigationPolicy):
        self.policy = policy
        self.history: List[MitigationResult] = []

    def mitigate(self, memory: MemoryManager, dt_seconds: float,
                 needed_gb: Optional[float] = None) -> MitigationResult:
        """Run one mitigation cycle trying to free *needed_gb* of memory.

        The amount actually freed is limited by the per-action bandwidths and
        the time available in this cycle (*dt_seconds*).
        """
        result = MitigationResult()
        if not self.policy.enabled:
            self.history.append(result)
            return result

        target = memory.oversub_shortfall_gb() if needed_gb is None else float(needed_gb)
        if target <= 1e-9:
            self.history.append(result)
            return result

        remaining = target

        if self.policy.allow_trim and remaining > 1e-9:
            budget = TRIM_BANDWIDTH_GBPS * dt_seconds
            amount = min(remaining, memory.trimmable_gb(), budget)
            if amount > 1e-9:
                freed = memory.trim_cold_memory(amount)
                if freed > 0:
                    result.actions.append(MitigationAction.TRIM)
                    result.trimmed_gb = freed
                    result.freed_gb += freed
                    remaining -= freed

        if self.policy.allow_extend and remaining > 1e-9:
            budget = EXTEND_BANDWIDTH_GBPS * dt_seconds
            amount = min(remaining, memory.unallocated_gb(), budget)
            if amount > 1e-9:
                added = memory.extend_pool(amount)
                if added > 0:
                    result.actions.append(MitigationAction.EXTEND)
                    result.extended_gb = added
                    result.freed_gb += added
                    remaining -= added

        if self.policy.allow_migrate and remaining > 1e-9:
            candidates = memory.migration_candidates()
            if candidates:
                vm_id = candidates[0]
                memory.start_migration(vm_id)
                result.actions.append(MitigationAction.MIGRATE)
                result.migrated_vm = vm_id

        self.history.append(result)
        return result
