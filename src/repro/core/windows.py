"""Time-window demand formulation (Section 3.3, Equations 1-4).

Coach divides the day into equal time windows and plans each VM's resources
from its predicted per-window utilization:

* For the non-fungible memory *space*, the guaranteed (PA-backed) portion is
  sized to the maximum PX-percentile across all windows (Eq. 1) so it never
  has to move at runtime; the per-window oversubscribed (VA-backed) demand is
  whatever the predicted maximum exceeds the PA portion by (Eq. 2).
* At the server level, the guaranteed pool is the sum of the VMs' PA demands
  (Eq. 3) and the oversubscribed pool is the *multiplexed* maximum over
  windows of the summed VA demands (Eq. 4) -- this is where complementary
  temporal patterns turn into savings.
* Fungible resources (CPU, network, SSD bandwidth) are planned directly from
  the per-window predicted demand, since the hypervisor can reassign them on
  the fly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource, is_fungible
from repro.prediction.buckets import round_memory_up
from repro.prediction.utilization_model import (
    WindowPredictionBatch,
    WindowUtilizationPrediction,
)
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import VMRecord


@dataclass
class ResourcePlan:
    """Planned demand for one resource of one VM, in absolute units."""

    resource: Resource
    #: The full allocation the customer requested.
    requested: float
    #: Guaranteed portion, static across windows (Eq. 1 for memory).
    guaranteed: float
    #: Per-window total demand (predicted maximum utilization x allocation).
    window_demand: np.ndarray
    #: Per-window oversubscribed demand (Eq. 2); zero for fully guaranteed plans.
    window_oversubscribed: np.ndarray

    @property
    def oversubscription_savings(self) -> float:
        """Resources not guaranteed compared to the requested allocation."""
        return max(0.0, self.requested - self.guaranteed)

    def validate(self) -> None:
        # Comparisons with NaN are false, so a NaN amount would pass every
        # rule below.
        if not (np.isfinite(self.requested) and np.isfinite(self.guaranteed)
                and np.isfinite(self.window_demand).all()
                and np.isfinite(self.window_oversubscribed).all()):
            raise ValueError("non-finite resource amounts")
        if self.guaranteed < -1e-9 or self.requested < -1e-9:
            raise ValueError("negative resource amounts")
        if self.guaranteed > self.requested + 1e-6:
            raise ValueError("guaranteed portion exceeds the requested allocation")
        if np.any(self.window_demand < -1e-9):
            raise ValueError("negative window demand")
        if np.any(self.window_oversubscribed < -1e-9):
            raise ValueError("negative oversubscribed demand")


@dataclass
class VMResourcePlan:
    """Per-resource plans for one VM under a given policy."""

    vm_id: str
    windows: TimeWindowConfig
    plans: Dict[Resource, ResourcePlan] = field(default_factory=dict)
    oversubscribed: bool = True

    def plan(self, resource: Resource) -> ResourcePlan:
        return self.plans[resource]

    @property
    def guaranteed_memory_gb(self) -> float:
        return self.plans[Resource.MEMORY].guaranteed

    def total_savings(self) -> Dict[Resource, float]:
        return {r: plan.oversubscription_savings for r, plan in self.plans.items()}

    def validate(self) -> None:
        for plan in self.plans.values():
            plan.validate()


# --------------------------------------------------------------------------- #
# Per-VM demand computation
# --------------------------------------------------------------------------- #
def plan_resource(
    resource: Resource,
    allocated: float,
    prediction: WindowUtilizationPrediction,
    oversubscribe: bool = True,
    memory_granularity_gb: float = 1.0,
) -> ResourcePlan:
    """Build the per-window plan for one resource of one VM.

    ``allocated`` is the requested amount in absolute units.  When
    ``oversubscribe`` is false (no history, opt-out, or the None policy), the
    guaranteed portion is the full allocation and every window demands it.
    """
    n_windows = prediction.windows.windows_per_day
    if not oversubscribe:
        full = np.full(n_windows, float(allocated))
        return ResourcePlan(resource, float(allocated), float(allocated), full,
                            np.zeros(n_windows))

    maximum = np.clip(prediction.maximum[resource], 0.0, 1.0) * allocated
    percentile = np.clip(prediction.percentile[resource], 0.0, 1.0) * allocated

    if is_fungible(resource):
        # Fungible resources are planned directly from per-window demand; the
        # "guaranteed" share is the demand the VM needs essentially always
        # (its smallest per-window percentile).
        guaranteed = float(percentile.min())
        window_demand = np.minimum(maximum, allocated)
        oversub = np.maximum(0.0, window_demand - guaranteed)
        return ResourcePlan(resource, float(allocated), guaranteed, window_demand, oversub)

    # Non-fungible memory space: Eq. 1 and Eq. 2.
    pa_demand = float(percentile.max())
    if resource is Resource.MEMORY:
        pa_demand = round_memory_up(pa_demand, memory_granularity_gb)
    pa_demand = min(pa_demand, float(allocated))
    window_demand = np.minimum(maximum, allocated)
    va_demand = np.maximum(0.0, window_demand - pa_demand)
    return ResourcePlan(resource, float(allocated), pa_demand, window_demand, va_demand)


def plan_vm(
    vm_id: str,
    allocation: Mapping[Resource, float],
    prediction: WindowUtilizationPrediction,
    oversubscribe: bool = True,
    memory_granularity_gb: float = 1.0,
) -> VMResourcePlan:
    """Build the full per-resource plan for one VM."""
    effective = oversubscribe and prediction.oversubscribable
    plans = {
        resource: plan_resource(resource, allocation[resource], prediction,
                                effective, memory_granularity_gb)
        for resource in ALL_RESOURCES
    }
    plan = VMResourcePlan(vm_id=vm_id, windows=prediction.windows, plans=plans,
                          oversubscribed=effective)
    plan.validate()
    return plan


# --------------------------------------------------------------------------- #
# Stream demand computation
# --------------------------------------------------------------------------- #
@dataclass
class PlanBatch:
    """:func:`plan_vm` of a stream of VMs, as stacked arrays.

    Row ``i`` is VM ``i``; resources are in ``ALL_RESOURCES`` order.  The
    arrays are read-only, because the plans :meth:`plan` hands out hold
    views of them.
    """

    vm_ids: List[str]
    windows: TimeWindowConfig
    #: ``(n_vms, n_resources)`` requested allocation.
    requested: np.ndarray
    #: ``(n_vms, n_resources)`` guaranteed portion.
    guaranteed: np.ndarray
    #: ``(n_vms, n_resources, n_windows)`` per-window demand.
    window_demand: np.ndarray
    #: ``(n_vms, n_resources, n_windows)`` per-window oversubscribed demand.
    window_oversubscribed: np.ndarray
    #: ``(n_vms,)`` bool: whether each VM was planned with oversubscription.
    oversubscribed: np.ndarray

    def __len__(self) -> int:
        return len(self.vm_ids)

    def plan(self, row: int) -> VMResourcePlan:
        """Row *row* as the :class:`VMResourcePlan` :func:`plan_vm` builds:
        scalar fields as Python floats and window arrays as views of the
        rows."""
        requested = self.requested[row].tolist()
        guaranteed = self.guaranteed[row].tolist()
        demand = self.window_demand[row]
        oversubscribed = self.window_oversubscribed[row]
        plans = {resource: ResourcePlan(resource, requested[index],
                                        guaranteed[index], demand[index],
                                        oversubscribed[index])
                 for index, resource in enumerate(ALL_RESOURCES)}
        return VMResourcePlan(self.vm_ids[row], self.windows, plans,
                              bool(self.oversubscribed[row]))


def allocation_matrix(vms: Sequence[VMRecord]) -> np.ndarray:
    """Each VM's requested allocation, shape ``(n_vms, n_resources)``."""
    vectors = [vm.allocation_vector() for vm in vms]
    return np.array([[vector[resource] for resource in ALL_RESOURCES]
                     for vector in vectors]).reshape(len(vms), len(ALL_RESOURCES))


#: Fungible resources, and the memory row, in ``ALL_RESOURCES`` order.
_FUNGIBLE = np.array([is_fungible(resource) for resource in ALL_RESOURCES])
_MEMORY_INDEX = ALL_RESOURCES.index(Resource.MEMORY)
#: :meth:`ResourcePlan.validate`'s rules in its order, with their messages.
_VALIDATION_MESSAGES = ("non-finite resource amounts",
                        "negative resource amounts",
                        "guaranteed portion exceeds the requested allocation",
                        "negative window demand",
                        "negative oversubscribed demand")


def plan_many(
    vm_ids: Sequence[str],
    allocations: np.ndarray,
    prediction: WindowPredictionBatch,
    oversubscribe: bool = True,
    memory_granularity_gb: float = 1.0,
) -> PlanBatch:
    """:func:`plan_vm` of a stream of VMs in array passes.

    *allocations* is :func:`allocation_matrix` of the VMs and *prediction*
    their stacked predictions.  Each step is :func:`plan_resource`'s
    elementwise arithmetic over all rows at once (clip and scale, Eq. 1-2
    with memory rounded up to the granularity, the whole allocation for
    rows planned without oversubscription).  The first row that
    ``plan_vm`` would fail on raises its error: the memory rounding's (a
    non-positive granularity, a NaN percentile), else the first
    :meth:`ResourcePlan.validate` rule its first failing resource breaks.
    So ``plan(i)`` of the result equals ``plan_vm`` of VM ``i`` bit for
    bit.
    """
    allocated = np.array(allocations, dtype=np.float64).reshape(
        len(vm_ids), len(ALL_RESOURCES))
    effective = prediction.oversubscribable & bool(oversubscribe)
    amount = allocated[:, :, None]
    maximum = np.clip(prediction.maximum, 0.0, 1.0) * amount
    percentile = np.clip(prediction.percentile, 0.0, 1.0) * amount
    # Fungible resources guarantee their smallest window percentile; the
    # non-fungible memory space guarantees its largest (Eq. 1), rounded up
    # to the management granularity and capped at the allocation.
    guaranteed = np.where(_FUNGIBLE, percentile.min(axis=2),
                          percentile.max(axis=2))
    pa_memory = guaranteed[:, _MEMORY_INDEX].copy()
    # Rows whose scalar rounding (round_memory_up) raises before any
    # validation rule runs: math.ceil takes no NaN or infinity.
    unroundable = effective & ((memory_granularity_gb <= 0)
                               | ~((pa_memory <= 0) | np.isfinite(pa_memory)))
    with np.errstate(divide="ignore", invalid="ignore"):
        guaranteed[:, _MEMORY_INDEX] = np.where(
            pa_memory <= 0, 0.0,
            np.ceil(pa_memory / memory_granularity_gb - 1e-9)
            * memory_granularity_gb)
    guaranteed = np.where(_FUNGIBLE, guaranteed,
                          np.minimum(guaranteed, allocated))
    window_demand = np.minimum(maximum, amount)
    window_oversubscribed = np.maximum(0.0, window_demand
                                       - guaranteed[:, :, None])
    # Rows planned without oversubscription guarantee their whole
    # allocation in every window.
    guaranteed = np.where(effective[:, None], guaranteed, allocated)
    window_demand = np.where(effective[:, None, None], window_demand, amount)
    window_oversubscribed = np.where(effective[:, None, None],
                                     window_oversubscribed, 0.0)

    finite = (np.isfinite(allocated) & np.isfinite(guaranteed)
              & np.isfinite(window_demand).all(axis=2)
              & np.isfinite(window_oversubscribed).all(axis=2))
    broken = np.stack([~finite,
                       (guaranteed < -1e-9) | (allocated < -1e-9),
                       guaranteed > allocated + 1e-6,
                       np.any(window_demand < -1e-9, axis=2),
                       np.any(window_oversubscribed < -1e-9, axis=2)], axis=2)
    failing = unroundable | broken.any(axis=(1, 2))
    if failing.any():
        row = int(np.argmax(failing))
        if unroundable[row]:
            # The scalar rounding raises plan_vm's own error for this row.
            round_memory_up(float(pa_memory[row]), memory_granularity_gb)
        resource = int(np.argmax(broken[row].any(axis=1)))
        raise ValueError(
            _VALIDATION_MESSAGES[int(np.argmax(broken[row, resource]))])
    for array in (allocated, guaranteed, window_demand, window_oversubscribed):
        array.setflags(write=False)
    return PlanBatch(list(vm_ids), prediction.windows, allocated, guaranteed,
                     window_demand, window_oversubscribed, effective)


# --------------------------------------------------------------------------- #
# Server-level aggregation (Eq. 3 and Eq. 4)
# --------------------------------------------------------------------------- #
def guaranteed_memory(plans: Iterable[VMResourcePlan]) -> float:
    """Eq. 3: the server's guaranteed (PA-backed) memory is the sum of PA demands."""
    return float(sum(p.plans[Resource.MEMORY].guaranteed for p in plans))


def multiplexed_oversubscribed_memory(plans: Sequence[VMResourcePlan]) -> float:
    """Eq. 4: the oversubscribed pool is the max over windows of summed VA demands.

    This multiplexes complementary temporal patterns: VMs whose VA demand
    peaks in different windows share the same backing memory.
    """
    plans = list(plans)
    if not plans:
        return 0.0
    n_windows = plans[0].windows.windows_per_day
    total = np.zeros(n_windows)
    for plan in plans:
        oversub = plan.plans[Resource.MEMORY].window_oversubscribed
        if oversub.shape[0] != n_windows:
            raise ValueError("all plans must use the same time window configuration")
        total += oversub
    return float(total.max())


def unmultiplexed_oversubscribed_memory(plans: Iterable[VMResourcePlan]) -> float:
    """The naive alternative to Eq. 4: allocate the sum of each VM's peak VA demand.

    Used in ablations to quantify how much the multiplexing step saves.
    """
    return float(sum(p.plans[Resource.MEMORY].window_oversubscribed.max()
                     for p in plans))


def server_memory_backing(plans: Sequence[VMResourcePlan]) -> Dict[str, float]:
    """Total PA and VA backing a server must reserve for a set of plans."""
    return {
        "pa_backing_gb": guaranteed_memory(plans),
        "va_backing_gb": multiplexed_oversubscribed_memory(plans),
    }


def window_demand_matrix(plans: Sequence[VMResourcePlan], resource: Resource) -> np.ndarray:
    """Stack of per-window demands, shape ``(n_plans, n_windows)``."""
    plans = list(plans)
    if not plans:
        return np.zeros((0, 0))
    return np.vstack([p.plans[resource].window_demand for p in plans])


def scheduling_vector(plan: VMResourcePlan, resource: Resource) -> np.ndarray:
    """The vector the scheduler checks for one resource of one plan.

    Per Section 3.3 the scheduler considers the number of windows plus one
    extra dimension for the static guaranteed portion of non-fungible
    resources.  For fungible resources the extra dimension is zero (their
    guaranteed share is already inside the window demands).
    """
    resource_plan = plan.plans[resource]
    extra = 0.0 if is_fungible(resource) else resource_plan.guaranteed
    return np.concatenate([resource_plan.window_demand, [extra]])
