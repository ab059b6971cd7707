"""The :class:`Trace` container: a set of VM records plus the fleet they ran on.

A trace is the common currency of the library: the characterization module
computes Section-2 statistics from it, the prediction module trains on it,
and the simulator replays it through the Coach scheduler.

A trace comes in two physical layouts:

* **Object-backed** (the seed representation): ``vms`` is a plain list of
  self-contained :class:`VMRecord` objects and every filter walks it.
* **Store-backed**: the trace was materialized from a columnar
  :class:`~repro.trace.store.TraceStore` (``trace.store`` is set), each
  ``vms[i]`` is a zero-copy view over store row ``i``, and the hot filters
  (:meth:`filter`, :meth:`alive_at`, :meth:`arriving_in`, :meth:`in_cluster`,
  :meth:`long_running`, :meth:`split_at`) evaluate whole-column comparisons
  instead of Python loops.  Both layouts expose the same API and return the
  same VMs in the same order, so callers never need to know which one they
  hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.core.resources import Resource
from repro.trace.hardware import Fleet
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.vm import Subscription, VMRecord


@dataclass
class Trace:
    """A collection of VM records observed over ``n_slots`` 5-minute slots."""

    vms: List[VMRecord]
    fleet: Fleet
    n_slots: int
    subscriptions: Dict[str, Subscription] = field(default_factory=dict)
    #: Columnar backing (:class:`repro.trace.store.TraceStore`) when this
    #: trace was materialized from one; ``None`` for object-backed traces.
    #: Invariant: ``vms[i]`` describes the same VM as store row ``i``.
    store: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("trace must span at least one slot")
        # The id index makes vm_by_id O(1) and doubles as duplicate-id
        # validation at construction time (a duplicate would otherwise hide
        # one of the two records from every id-based lookup).  Store-backed
        # traces skip the eager build: every store entry point
        # (from_trace / open) already validated uniqueness, row
        # selections cannot introduce duplicates, and the store keeps its
        # own lazily-built index -- so filters stay free of O(n) dict
        # rebuilds.
        if self.store is not None:
            self._id_index: Optional[Dict[str, int]] = None
            # min_days -> the selected sub-trace.  Every characterization
            # statistic starts from ``trace.long_running(...)`` of the same
            # top-level trace; memoizing the selection means they all share
            # one sub-store object, which is what lets the per-store
            # window-entry cache in ``repro.characterization.columnar`` hit
            # across statistics.
            self._long_running_cache: Dict[float, "Trace"] = {}
            return
        index: Dict[str, int] = {}
        for i, vm in enumerate(self.vms):
            if vm.vm_id in index:
                raise ValueError(f"duplicate VM id {vm.vm_id!r}")
            index[vm.vm_id] = i
        self._id_index = index

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
        if self._id_index is None:
            return self.vms[self.store.index_of(vm_id)]
        try:
            return self.vms[self._id_index[vm_id]]
        except KeyError as exc:
            raise KeyError(f"no VM with id {vm_id!r}") from exc

    def cluster_ids(self) -> List[str]:
        return self.fleet.cluster_ids()

    def without_store(self) -> "Trace":
        """This trace with the columnar backing detached (self if none).

        Pickling a store-backed trace ships its telemetry twice -- the flat
        store buffers plus an independent copy of every row-view slice --
        so anything that pickles a whole trace (the sweep's pickle
        transport, its benchmark baseline) strips the store first to get
        the plain object-trace payload.
        """
        if self.store is None:
            return self
        return Trace(vms=self.vms, fleet=self.fleet, n_slots=self.n_slots,
                     subscriptions=self.subscriptions)

    # ------------------------------------------------------------------ #
    # Filtering
    # ------------------------------------------------------------------ #
    def _select(self, indices) -> "Trace":
        """A new trace over the given row indices (store kept in lockstep)."""
        vms = self.vms
        store = self.store
        return Trace(
            vms=[vms[i] for i in indices],
            fleet=self.fleet,
            n_slots=self.n_slots,
            subscriptions=self.subscriptions,
            store=store.select(indices) if store is not None else None,
        )

    def filter(self, predicate: Callable[[VMRecord], bool]) -> "Trace":
        """A new trace containing only the VMs matching *predicate*.

        A black-box predicate must visit every record, but on a store-backed
        trace the result still carries a (zero-copy) store selection so the
        *next* filter stays vectorized.
        """
        return self._select([i for i, vm in enumerate(self.vms) if predicate(vm)])

    def in_cluster(self, cluster_id: str) -> "Trace":
        if self.store is not None:
            return self._select(self.store.in_cluster_indices(cluster_id))
        return self.filter(lambda vm: vm.cluster_id == cluster_id)

    def long_running(self, min_days: float = 1.0) -> "Trace":
        """VMs lasting more than *min_days* -- the oversubscription targets."""
        if self.store is not None:
            cached = self._long_running_cache.get(min_days)
            if cached is None:
                cached = self._select(np.nonzero(
                    self.store.long_running_mask(min_days))[0])
                self._long_running_cache[min_days] = cached
            return cached
        return self.filter(lambda vm: vm.is_long_running(min_days))

    def alive_at(self, slot: int) -> List[VMRecord]:
        if self.store is not None:
            vms = self.vms
            return [vms[i] for i in self.store.alive_at_indices(slot)]
        return [vm for vm in self.vms if vm.alive_at(slot)]

    def arriving_in(self, start_slot: int, end_slot: int) -> List[VMRecord]:
        """VMs whose allocation time falls in ``[start_slot, end_slot)``."""
        if self.store is not None:
            vms = self.vms
            return [vms[i] for i in
                    self.store.arriving_in_indices(start_slot, end_slot)]
        return [vm for vm in self.vms if start_slot <= vm.start_slot < end_slot]

    def split_at(self, slot: int) -> tuple["Trace", "Trace"]:
        """Split into (VMs starting before *slot*, VMs starting at/after *slot*).

        Used for history-based prediction: train on week one, evaluate on the
        VMs created during week two (Figure 12 and Section 3.3).
        """
        if self.store is not None:
            mask = self.store.start_slot < slot
            return (self._select(np.nonzero(mask)[0]),
                    self._select(np.nonzero(~mask)[0]))
        before = self.filter(lambda vm: vm.start_slot < slot)
        after = self.filter(lambda vm: vm.start_slot >= slot)
        return before, after

    def by_subscription(self) -> Dict[str, List[VMRecord]]:
        groups: Dict[str, List[VMRecord]] = {}
        for vm in self.vms:
            groups.setdefault(vm.subscription_id, []).append(vm)
        return groups

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

        Store-backed traces scatter the flat telemetry buffer straight into
        the matrix (:meth:`TraceStore.utilization_matrix`); the per-VM loop
        below is the reference twin and produces bitwise-identical output.
        """
        if self.store is not None:
            rows = (None if cluster_id is None
                    else self.store.in_cluster_indices(cluster_id))
            return self.store.utilization_matrix(
                resource, self.n_slots, rows=rows, absolute=absolute)
        vms = self.vms if cluster_id is None else [
            vm for vm in self.vms if vm.cluster_id == cluster_id]
        matrix = np.zeros((len(vms), self.n_slots))
        for row, vm in enumerate(vms):
            series = vm.series(resource)
            scale = vm.allocated(resource) if absolute else 1.0
            end = min(series.end_slot, self.n_slots)
            matrix[row, series.start_slot:end] = series.values[: end - series.start_slot] * scale
        return matrix

    def aggregate_demand(self, resource: Resource, cluster_id: Optional[str] = None) -> np.ndarray:
        """Total demand for *resource* per slot across the (cluster's) VMs."""
        return self.utilization_matrix(resource, cluster_id).sum(axis=0)

    def validate(self) -> None:
        """Validate every VM record; raises on the first inconsistency.

        (Duplicate VM ids are already rejected at construction time; the
        check here stays so a caller who mutated ``vms`` in place still gets
        a loud failure.)
        """
        seen: set[str] = set()
        for vm in self.vms:
            if vm.vm_id in seen:
                raise ValueError(f"duplicate VM id {vm.vm_id!r}")
            seen.add(vm.vm_id)
            if vm.end_slot > self.n_slots:
                raise ValueError(
                    f"VM {vm.vm_id} ends at slot {vm.end_slot}, beyond trace "
                    f"length {self.n_slots}"
                )
            if vm.cluster_id not in self.fleet.cluster_ids():
                raise ValueError(f"VM {vm.vm_id} references unknown cluster {vm.cluster_id}")
            vm.validate()

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

