"""Cluster-scale replay simulation (Section 4.1, "Simulator").

The paper evaluates Coach's scheduling policy by running the production VM
allocator on production traces and replaying the 5-minute utilization data to
estimate contention.  This engine does the same against the synthetic trace:

1. split the trace into a history week (training) and an evaluation week;
2. train the policy's prediction model on the history;
3. replay the evaluation VMs' arrivals and departures through a per-cluster
   :class:`ClusterManager` (which plans and places CoachVMs);
4. replay the actual utilization of the placed VMs against each server's
   committed physical resources to count CPU and memory violations with the
   :class:`~repro.simulator.replay.VectorizedViolationMeter` (its seed loop
   stays in :mod:`repro.simulator.replay` as the test oracle).

Clusters are fully independent (each has its own manager, scheduler, and
ledger); :func:`simulate_policy` replays them one after another and
aggregates in cluster-id order.  Whole *policies* are fanned out across
worker processes by :func:`repro.simulator.sweep.sweep_policies`
(``SimulationConfig.sweep_parallelism``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cluster_manager import ClusterManager, build_prediction_model
from repro.core.policy import PolicyConfig
from repro.core.resources import Resource
from repro.simulator.metrics import PolicyEvaluation, ViolationStats
from repro.simulator.replay import VectorizedViolationMeter
from repro.trace.hardware import Fleet
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


@dataclass(frozen=True)
class FailureEvent:
    """One injected server failure (repro.scenarios failure axis).

    ``kind`` is ``"drain"`` (residents are evacuated and re-requested
    through the normal admission path, modelling a planned decommission)
    or ``"crash"`` (residents are lost: released and dropped from the
    replay, modelling an abrupt hardware failure).  Either way the server
    is disabled first, so evacuated demand can never land back on it.
    """

    slot: int
    cluster_id: str
    server_index: int
    kind: str = "drain"

    def __post_init__(self) -> None:
        if self.kind not in ("drain", "crash"):
            raise ValueError(f"unknown failure kind: {self.kind!r}")
        if self.server_index < 0:
            raise ValueError(
                f"failure server_index must be non-negative, "
                f"got {self.server_index}")


@dataclass
class SimulationConfig:
    """Knobs of the cluster-scale replay.

    Admission has no knob: every cluster admits by the scheduler's one rule
    (vector and backing check) and reads each VM's allocation class, so
    reserved arrivals may preempt spot VMs (:meth:`ClusterScheduler.place`).
    To replay with perfect foresight, pass an
    :class:`~repro.prediction.utilization_model.OracleUtilizationModel` as
    ``simulate_policy(prediction_model=...)``.
    """

    #: Slot at which the evaluation period starts (history before it).
    history_end_slot: int = 7 * SLOTS_PER_DAY
    #: Slot from which VM arrivals are replayed through the scheduler.  The
    #: default (0) places every VM in the trace, which models the platform
    #: steady state: long-running VMs admitted earlier are still occupying
    #: capacity when new arrivals show up.
    placement_start_slot: int = 0
    #: CPU contention threshold: demand above this fraction of server capacity
    #: counts as contention (Section 4.3 uses 50%).
    cpu_contention_fraction: float = 0.5
    #: Only clusters listed here are simulated (``None`` = all).
    clusters: Optional[Sequence[str]] = None
    #: Forest size for the learned prediction model.
    n_estimators: int = 10
    #: Slot-axis tile width for the violation meter's chunked streaming
    #: mode (``None`` = dense, the full evaluation window in one tile).
    #: Bounds peak replay memory at ``O(n_servers * replay_chunk_slots)``
    #: for multi-week traces; any positive value yields bitwise-identical
    #: results.
    replay_chunk_slots: Optional[int] = None
    #: Number of worker *processes* used by :func:`sweep_policies` to fan
    #: out whole policies (1 = serial).  Processes sidestep the GIL that
    #: holds forest training and replay to one core, and memory-map one
    #: staged copy of the trace instead of unpickling a copy each; any
    #: value yields bitwise-identical results (see :mod:`repro.simulator.sweep`).
    sweep_parallelism: int = 1
    #: Injected server failures, applied by :class:`ClusterSimulation` in
    #: deterministic ``(slot, listing order)`` order as the replay crosses
    #: each failure's slot.  Empty (the default) leaves the replay
    #: bitwise-identical to a failure-free run.
    failure_events: Tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        # Reject a bad tile width here, before any model training or sweep
        # worker spawn could run on it.
        if self.replay_chunk_slots is not None and self.replay_chunk_slots < 1:
            raise ValueError(
                f"replay_chunk_slots must be a positive slot count, "
                f"got {self.replay_chunk_slots}")


def check_fleet_references(fleet: Fleet, config: SimulationConfig) -> None:
    """Reject a config naming a cluster or server that *fleet* lacks.

    Covers ``config.clusters`` and every failure event (not only one
    cluster's), and raises ``ValueError`` naming the culprit, so the bad
    input fails before any model trains or cluster replays.
    """
    server_counts = {cluster.cluster_id: cluster.server_count
                     for cluster in fleet.clusters}
    for cluster_id in config.clusters or ():
        if cluster_id not in server_counts:
            raise ValueError(f"SimulationConfig.clusters names cluster "
                             f"{cluster_id!r}, which is not in the trace's "
                             f"fleet {list(server_counts)}")
    for event in config.failure_events:
        if event.cluster_id not in server_counts:
            raise ValueError(f"{event} names a cluster that is not in "
                             f"the trace's fleet {list(server_counts)}")
        if event.server_index >= server_counts[event.cluster_id]:
            raise ValueError(
                f"{event} names a server past the "
                f"{server_counts[event.cluster_id]} servers of its cluster")


@dataclass
class ClusterRunResult:
    cluster_id: str
    manager: ClusterManager
    placed_vms: Dict[str, VMRecord] = field(default_factory=dict)
    violations: ViolationStats = field(default_factory=ViolationStats)


class ClusterSimulation:
    """Replays one cluster's arrivals through a ClusterManager."""

    def __init__(self, trace: Trace, cluster_id: str, policy: PolicyConfig,
                 prediction_model: object, config: SimulationConfig):
        # The whole config is checked, not just this cluster's part, so a
        # bad one stops the run before any cluster replays.
        check_fleet_references(trace.fleet, config)
        self.trace = trace
        self.cluster_id = cluster_id
        self.policy = policy
        self.config = config
        self._violation_meter = VectorizedViolationMeter(
            chunk_slots=config.replay_chunk_slots)
        self.manager = ClusterManager(
            trace.fleet.get(cluster_id), policy, prediction_model)
        self.placed: Dict[str, VMRecord] = {}
        # Stable (slot, listing order) firing order for this cluster's
        # injected failures; sorted() is stable, so ties on the slot fire
        # in config order.
        self._failures: List[FailureEvent] = sorted(
            (event for event in config.failure_events
             if event.cluster_id == cluster_id),
            key=lambda event: event.slot)
        self.preempted = 0
        self.evacuated = 0
        self.crashed_vms = 0

    def run(self) -> ClusterRunResult:
        # One whole-column comparison instead of a Python attribute walk
        # over every VM in the trace.
        vms = self.trace.vms
        eval_vms = [vms[i] for i in self.trace.store.arrivals_for(
            self.cluster_id, self.config.placement_start_slot)]
        eval_vms.sort(key=lambda vm: (vm.start_slot, vm.vm_id))

        # Event-driven replay: before each arrival batch, release VMs that
        # ended.  Departures sit in a min-heap keyed by end slot, so each
        # batch pops only the VMs that actually depart instead of rescanning
        # the whole pending list.  Arrivals sharing a start slot are admitted
        # as one ClusterManager.request_batch call; this is equivalent to the
        # per-VM loop because a VM's end slot is strictly greater than its
        # start slot (VMRecord.validate), so no departure can become due
        # between two same-slot arrivals.
        pending_departures: List[Tuple[int, str]] = []
        failure_index = 0
        index = 0
        while index < len(eval_vms):
            start_slot = eval_vms[index].start_slot
            upper = index
            while upper < len(eval_vms) and eval_vms[upper].start_slot == start_slot:
                upper += 1
            batch = eval_vms[index:upper]
            index = upper
            # Failures due by this batch's slot fire first (each drains the
            # departures due by its own slot before evacuating), so arrivals
            # always see the post-failure fleet -- deterministically, since
            # failures, departures, and arrivals are each totally ordered.
            while (failure_index < len(self._failures)
                   and self._failures[failure_index].slot <= start_slot):
                self._apply_failure(self._failures[failure_index],
                                    pending_departures)
                failure_index += 1
            while pending_departures and pending_departures[0][0] <= start_slot:
                _end_slot, vm_id = heapq.heappop(pending_departures)
                self.manager.deallocate(vm_id)

            for vm, result in zip(batch, self.manager.request_batch(batch)):
                if result.accepted:
                    self.placed[vm.vm_id] = vm
                    heapq.heappush(pending_departures, (vm.end_slot, vm.vm_id))
                self.preempted += len(result.preempted)

        while failure_index < len(self._failures):
            self._apply_failure(self._failures[failure_index],
                                pending_departures)
            failure_index += 1

        violations = self._measure_violations()
        return ClusterRunResult(self.cluster_id, self.manager, dict(self.placed),
                                violations)

    def _apply_failure(self, event: FailureEvent,
                       pending_departures: List[Tuple[int, str]]) -> None:
        """Disable one server and evacuate (drain) or drop (crash) residents.

        Departures due by the failure's slot are released first so only VMs
        actually alive at the failure are touched.  Residents leave in
        acceptance order (:meth:`ClusterManager.vms_on_server` preserves
        it); a drain then re-requests the still-alive ones as one batch
        through normal admission -- re-placements count as new requests,
        reserved evacuees may preempt spot VMs, and each lands on another
        server or is rejected (a rejected evacuee is lost, like a crash
        victim).
        """
        while pending_departures and pending_departures[0][0] <= event.slot:
            _end_slot, vm_id = heapq.heappop(pending_departures)
            self.manager.deallocate(vm_id)
        cluster = self.trace.fleet.get(self.cluster_id)
        server_id = f"{cluster.cluster_id}-s{event.server_index:03d}"
        residents = [coach_vm.vm_id
                     for coach_vm in self.manager.vms_on_server(server_id)]
        for vm_id in residents:
            self.manager.deallocate(vm_id)
        self.manager.disable_server(server_id)
        if event.kind == "crash":
            for vm_id in residents:
                self.placed.pop(vm_id, None)
            self.crashed_vms += len(residents)
            return
        evacuees = [self.placed[vm_id] for vm_id in residents
                    if vm_id in self.placed
                    and self.placed[vm_id].end_slot > event.slot]
        self.evacuated += len(evacuees)
        for vm, result in zip(evacuees,
                              self.manager.request_batch(evacuees)):
            if not result.accepted:
                self.placed.pop(vm.vm_id, None)
            self.preempted += len(result.preempted)

    # ------------------------------------------------------------------ #
    # Contention accounting
    # ------------------------------------------------------------------ #
    def _measure_violations(self) -> ViolationStats:
        """Replay utilization of placed VMs against each server's commitments."""
        return self._violation_meter.measure(
            self.manager.scheduler.servers.values(), self.placed,
            self.config.placement_start_slot, self.trace.n_slots,
            self.config.cpu_contention_fraction)


def simulate_policy(trace: Trace, policy: PolicyConfig,
                    config: Optional[SimulationConfig] = None,
                    prediction_model: Optional[object] = None) -> PolicyEvaluation:
    """Run the full replay for one policy and aggregate across clusters.

    Clusters are replayed one after another on independent ledgers (the
    prediction model is shared read-only) and folded into the totals in
    that order.
    """
    config = config or SimulationConfig()
    check_fleet_references(trace.fleet, config)
    cluster_ids = list(config.clusters) if config.clusters else trace.cluster_ids()

    if prediction_model is None:
        history, _future = trace.split_at(config.history_end_slot)
        history_vms = history.long_running().vms
        prediction_model = build_prediction_model(
            policy, history_vms, n_estimators=config.n_estimators)

    requested = accepted = rejected = servers_in_use = servers_total = 0
    accepted_cores = accepted_memory = 0.0
    accepted_vm_slots = 0.0
    accepted_core_slots = 0.0
    accepted_memory_slots = 0.0
    violation_parts: List[ViolationStats] = []
    eval_slots = max(1, trace.n_slots - config.placement_start_slot)

    def _aggregate(result: ClusterRunResult) -> None:
        """Fold one cluster into the running totals (cluster-id order), so
        completed ClusterRunResults -- manager, ledger, placed map -- can be
        dropped instead of all being held until the end."""
        nonlocal requested, accepted, rejected, servers_in_use, servers_total
        nonlocal accepted_cores, accepted_memory, accepted_vm_slots
        nonlocal accepted_core_slots, accepted_memory_slots
        manager = result.manager
        requested += manager.stats.requests
        accepted += manager.stats.accepted
        rejected += manager.stats.rejected
        servers_in_use += manager.scheduler.servers_in_use()
        servers_total += len(manager.scheduler.servers)
        for vm in result.placed_vms.values():
            accepted_cores += vm.allocated(Resource.CPU)
            accepted_memory += vm.allocated(Resource.MEMORY)
            overlap_slots = min(vm.end_slot, trace.n_slots) - max(
                vm.start_slot, config.placement_start_slot)
            accepted_vm_slots += overlap_slots
            accepted_core_slots += overlap_slots * vm.allocated(Resource.CPU)
            accepted_memory_slots += overlap_slots * vm.allocated(Resource.MEMORY)
        violation_parts.append(result.violations)

    for cluster_id in cluster_ids:
        _aggregate(ClusterSimulation(trace, cluster_id, policy,
                                     prediction_model, config).run())

    violations = ViolationStats.merge(violation_parts)
    return PolicyEvaluation(
        policy_name=policy.name,
        requested_vms=requested,
        accepted_vms=accepted,
        rejected_vms=rejected,
        servers_in_use=servers_in_use,
        servers_total=servers_total,
        accepted_core_requests=accepted_cores,
        accepted_memory_requests_gb=accepted_memory,
        average_concurrent_vms=accepted_vm_slots / eval_slots,
        average_concurrent_cores=accepted_core_slots / eval_slots,
        average_concurrent_memory_gb=accepted_memory_slots / eval_slots,
        violations=violations,
    )
