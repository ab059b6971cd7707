"""The :class:`Trace` container: a set of VM records plus the fleet they ran on.

A trace is the common currency of the library: the characterization module
computes Section-2 statistics from it, the prediction module trains on it,
and the simulator replays it through the Coach scheduler.

Every trace is backed by a columnar :class:`~repro.trace.store.TraceStore`
in ``trace.store``: VM metadata as numpy columns, telemetry as one flat
buffer per resource.  ``vms[i]`` is a zero-copy :class:`VMRecord` view over
store row ``i``, so per-VM callers read the same samples the columns hold,
while the hot filters (:meth:`in_cluster`, :meth:`long_running`,
:meth:`alive_at`, :meth:`arriving_in`, :meth:`split_at`) evaluate
whole-column comparisons instead of walking the records.  A trace built
from a list of records encodes them once, with the store's row encoder,
the one gate for a trace's VMs: a record a replay could not use (a
repeated id, a cluster outside the fleet, a lifetime outside
``[0, n_slots)``, telemetry that is not one float64 coverage from the
VM's start within its lifetime) is rejected with a ``ValueError`` naming
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.core.resources import Resource
from repro.trace.hardware import Fleet
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.vm import Subscription, VMRecord

if TYPE_CHECKING:  # pragma: no cover - repro.trace.store imports this module
    from repro.trace.store import TraceStore


@dataclass
class Trace:
    """A collection of VM records observed over ``n_slots`` 5-minute slots."""

    vms: List[VMRecord]
    fleet: Fleet
    n_slots: int
    subscriptions: Dict[str, Subscription] = field(default_factory=dict)
    #: Columnar backing.  Built from ``vms`` when not given, and then
    #: ``vms`` is replaced by the store's row views.  Invariant: ``vms[i]``
    #: describes the same VM as store row ``i``.
    store: Optional["TraceStore"] = field(default=None, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("trace must span at least one slot")
        # Local import: repro.trace.store imports this module.
        from repro.trace.store import TraceStore
        if not isinstance(self.store, TraceStore):
            self.store = TraceStore.from_records(
                self.vms, fleet=self.fleet, n_slots=self.n_slots,
                subscriptions=self.subscriptions)
            self.vms = self.store.as_trace().vms
        # min_days -> the selected sub-trace.  Every characterization
        # statistic starts from ``trace.long_running(...)`` of the same
        # top-level trace; memoizing the selection means they all share
        # one sub-store object, which is what lets the per-store cache in
        # ``repro.characterization.columnar`` (window entries, Figure 6's
        # per-VM statistics) hit across statistics.
        self._long_running_cache: Dict[float, "Trace"] = {}

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.vms)

    def __iter__(self) -> Iterator[VMRecord]:
        return iter(self.vms)

    @property
    def n_days(self) -> float:
        return self.n_slots / SLOTS_PER_DAY

    def vm_by_id(self, vm_id: str) -> VMRecord:
        return self.vms[self.store.index_of(vm_id)]

    def cluster_ids(self) -> List[str]:
        return self.fleet.cluster_ids()

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _select(self, indices) -> "Trace":
        """A new trace over the given row indices (store kept in lockstep)."""
        vms = self.vms
        return Trace(
            vms=[vms[i] for i in indices],
            fleet=self.fleet,
            n_slots=self.n_slots,
            subscriptions=self.subscriptions,
            store=self.store.select(indices),
        )

    def filter(self, predicate: Callable[[VMRecord], bool]) -> "Trace":
        """A new trace containing only the VMs matching *predicate*.

        A black-box predicate must visit every record, but the result still
        carries a (zero-copy) store selection so the *next* filter stays
        vectorized.
        """
        return self._select([i for i, vm in enumerate(self.vms) if predicate(vm)])

    def in_cluster(self, cluster_id: str) -> "Trace":
        return self._select(self.store.in_cluster_indices(cluster_id))

    def long_running(self, min_days: float = 1.0) -> "Trace":
        """VMs lasting more than *min_days* -- the oversubscription targets."""
        cached = self._long_running_cache.get(min_days)
        if cached is None:
            cached = self._select(np.nonzero(
                self.store.long_running_mask(min_days))[0])
            self._long_running_cache[min_days] = cached
        return cached

    def alive_at(self, slot: int) -> List[VMRecord]:
        vms = self.vms
        return [vms[i] for i in self.store.alive_at_indices(slot)]

    def arriving_in(self, start_slot: int, end_slot: int) -> List[VMRecord]:
        """VMs whose allocation time falls in ``[start_slot, end_slot)``."""
        vms = self.vms
        return [vms[i] for i in
                self.store.arriving_in_indices(start_slot, end_slot)]

    def split_at(self, slot: int) -> tuple["Trace", "Trace"]:
        """Split into (VMs starting before *slot*, VMs starting at/after *slot*).

        Used for history-based prediction: train on week one, evaluate on the
        VMs created during week two (Figure 12 and Section 3.3).
        """
        mask = self.store.start_slot < slot
        return (self._select(np.nonzero(mask)[0]),
                self._select(np.nonzero(~mask)[0]))

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_resource_hours(self, resource: Resource) -> float:
        return float(sum(vm.resource_hours(resource) for vm in self.vms))

    def utilization_matrix(self, resource: Resource, cluster_id: Optional[str] = None,
                           absolute: bool = True) -> np.ndarray:
        """Dense (n_vms, n_slots) demand matrix for one resource.

        Entries outside a VM's lifetime are zero.  When ``absolute`` is true,
        values are in resource units (cores / GB / ...), otherwise fractions.
        The flat telemetry buffer is scattered straight into the matrix
        (:meth:`TraceStore.utilization_matrix`).
        """
        rows = (None if cluster_id is None
                else self.store.in_cluster_indices(cluster_id))
        return self.store.utilization_matrix(
            resource, self.n_slots, rows=rows, absolute=absolute)

    def summary(self) -> Dict[str, float]:
        """Headline statistics used by the README / examples."""
        long_running = [vm for vm in self.vms if vm.is_long_running()]
        core_hours = self.total_resource_hours(Resource.CPU)
        long_core_hours = sum(vm.resource_hours(Resource.CPU) for vm in long_running)
        return {
            "n_vms": float(len(self.vms)),
            "n_clusters": float(len(self.fleet.clusters)),
            "n_days": self.n_days,
            "fraction_long_running": len(long_running) / max(len(self.vms), 1),
            "core_hours": core_hours,
            "fraction_core_hours_long_running": long_core_hours / max(core_hours, 1e-9),
        }

