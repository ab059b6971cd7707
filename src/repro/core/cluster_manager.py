"""Cluster manager: turns VM requests into CoachVM placements (Section 3.1).

For every incoming request the cluster manager asks the prediction model for
per-window utilization, converts the request into guaranteed/oversubscribed
portions under the active policy, and hands the resulting plan to the cluster
scheduler.  Requests from customers without sufficient history are admitted
without oversubscription (conservative default, G2).

A plan depends only on the VM and the read-only prediction model, never on
placement state, so the manager plans a whole stream of requests at once
(:meth:`ClusterManager.build_plans`: one ``predict_many`` call and one
:func:`~repro.core.windows.plan_many` pass) and keeps the rows for the
requests' admission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.coachvm import CoachVM
from repro.core.policy import PolicyConfig
from repro.core.resources import Resource
from repro.core.scheduler import ClusterScheduler, PlacementDecision
from repro.core.windows import (
    PlanBatch,
    VMResourcePlan,
    allocation_matrix,
    plan_many,
)
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
)
from repro.trace.hardware import ClusterConfig
from repro.trace.vm import VMRecord


@dataclass
class AdmissionResult:
    """Outcome of one VM request."""

    vm_id: str
    accepted: bool
    coach_vm: Optional[CoachVM] = None
    decision: Optional[PlacementDecision] = None

    @property
    def server_id(self) -> Optional[str]:
        return self.decision.server_id if self.decision else None

    @property
    def preempted(self) -> Tuple[str, ...]:
        """Spot VMs evicted while admitting this (reserved) request."""
        return self.decision.preempted if self.decision else ()


@dataclass
class ClusterManagerStats:
    requests: int = 0
    accepted: int = 0
    rejected: int = 0
    oversubscribed: int = 0
    not_oversubscribed: int = 0
    preempted: int = 0
    savings_gb: float = 0.0
    savings_cores: float = 0.0


class ClusterManager:
    """Logically centralised manager for one cluster.

    The *prediction_model* provides ``predict_many(vms)``, returning a
    :class:`~repro.prediction.utilization_model.WindowPredictionBatch` in
    the policy's time windows (the three models of
    :mod:`repro.prediction.utilization_model` do); ``None`` means no
    oversubscription.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        policy: PolicyConfig,
        prediction_model: Optional[object] = None,
    ):
        self.cluster = cluster
        self.policy = policy
        if prediction_model is None:
            prediction_model = NoOversubscriptionModel(policy.windows)
        self.prediction_model = prediction_model
        self.scheduler = ClusterScheduler(cluster, policy.windows)
        self.stats = ClusterManagerStats()
        self._vms: Dict[str, CoachVM] = {}
        #: VM id -> (the VM planned, its PlanBatch, its row): every plan
        #: built so far, kept for the VM's admission and re-admission.
        self._plan_rows: Dict[str, Tuple[VMRecord, PlanBatch, int]] = {}

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def build_plans(self, vms: Sequence[VMRecord]) -> PlanBatch:
        """Plan a stream of VM requests under the active policy.

        One ``predict_many`` call and one
        :func:`~repro.core.windows.plan_many` pass; row ``i`` is the plan of
        ``vms[i]``.  The rows are kept by VM id, so a later
        :meth:`request_batch` of the same VM objects (arrivals, and
        evacuees re-requested after a drain) reuses them instead of
        predicting again.  Raises ``ValueError``, keeping nothing, when the
        model's windows differ from the policy's.
        """
        vms = list(vms)
        prediction = self.prediction_model.predict_many(vms)
        if prediction.windows.windows_per_day != self.policy.windows.windows_per_day:
            raise ValueError(
                "prediction model and policy use different time window configurations")
        plans = plan_many([vm.vm_id for vm in vms], allocation_matrix(vms),
                          prediction, self.policy.oversubscribe,
                          self.policy.memory_granularity_gb)
        for row, vm in enumerate(vms):
            self._plan_rows[vm.vm_id] = (vm, plans, row)
        return plans

    def request_vm(self, vm: VMRecord) -> AdmissionResult:
        """Admit (or reject) one VM request."""
        return self.request_batch((vm,))[0]

    def request_batch(self, vms: Sequence[VMRecord]) -> List[AdmissionResult]:
        """Admit (or reject) an arrival batch, in order.

        Every plan is built before any is placed: the VMs
        :meth:`build_plans` has not planned yet are planned in one call,
        so a request whose plan cannot be built (e.g. a prediction-model
        window mismatch) fails the whole batch with nothing placed and
        nothing counted.  The prediction model is read-only, so building
        up front yields the same plans as building each one just before its
        placement.  Each plan then goes through
        :meth:`ClusterScheduler.place` with the VM's allocation class
        (reserved arrivals may preempt spot VMs).
        """
        vms = list(vms)
        missing = [vm for vm in vms
                   if self._plan_rows.get(vm.vm_id, (None,))[0] is not vm]
        if missing:
            self.build_plans(missing)
        plans = [block.plan(row)
                 for _vm, block, row in (self._plan_rows[vm.vm_id] for vm in vms)]
        return [self._register(vm, plan,
                               self.scheduler.place(plan, vm.allocation_class))
                for vm, plan in zip(vms, plans)]

    def _register(self, vm: VMRecord, plan: VMResourcePlan,
                  decision: PlacementDecision) -> AdmissionResult:
        """Post-placement bookkeeping for one scheduler decision.

        A request is counted here, together with its accept or reject, so
        ``requests == accepted + rejected`` holds even when a batch fails.
        """
        self.stats.requests += 1
        # The scheduler already released preempted spot VMs from its ledger;
        # mirror that in the manager's registry (evictions stand even when
        # the arrival itself was rejected).
        for victim in decision.preempted:
            self._vms.pop(victim, None)
            self.stats.preempted += 1
        if not decision.accepted:
            self.stats.rejected += 1
            return AdmissionResult(vm.vm_id, False, None, decision)

        coach_vm = CoachVM.from_plan(vm, plan, self.policy.va_backing_fraction)
        coach_vm.server_id = decision.server_id
        self._vms[vm.vm_id] = coach_vm
        self.stats.accepted += 1
        if plan.oversubscribed:
            self.stats.oversubscribed += 1
        else:
            self.stats.not_oversubscribed += 1
        savings = plan.total_savings()
        self.stats.savings_gb += savings[Resource.MEMORY]
        self.stats.savings_cores += savings[Resource.CPU]
        return AdmissionResult(vm.vm_id, True, coach_vm, decision)

    def deallocate(self, vm_id: str) -> None:
        """Release a VM's resources when it is deallocated or migrated away."""
        self.scheduler.deallocate(vm_id)
        self._vms.pop(vm_id, None)

    def disable_server(self, server_id: str) -> None:
        """Remove a failed server from the placement pool (residents stay).

        Callers evacuate residents first (:meth:`vms_on_server` +
        :meth:`deallocate`) or drop them; the flip itself only stops future
        placements (:meth:`ClusterScheduler.disable_server`).
        """
        self.scheduler.disable_server(server_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def placed_vms(self) -> Dict[str, CoachVM]:
        return dict(self._vms)

    def vms_on_server(self, server_id: str) -> List[CoachVM]:
        """Resident CoachVMs of one server in acceptance order (O(residents)).

        Reads the scheduler account's plans, which are committed on accept
        and released on deallocate or preemption; an unknown server has no
        residents.
        """
        account = self.scheduler.servers.get(server_id)
        if account is None:
            return []
        return [self._vms[vm_id] for vm_id in account.plans]

    def capacity_summary(self) -> Dict[str, float]:
        """Headline packing numbers for the cluster."""
        scheduler = self.scheduler
        return {
            "vms_placed": float(self.stats.accepted),
            "vms_rejected": float(self.stats.rejected),
            "servers_in_use": float(scheduler.servers_in_use()),
            "allocated_cores": scheduler.total_allocated_request(Resource.CPU),
            "allocated_memory_gb": scheduler.total_allocated_request(Resource.MEMORY),
            "capacity_cores": scheduler.total_capacity(Resource.CPU),
            "capacity_memory_gb": scheduler.total_capacity(Resource.MEMORY),
            "savings_memory_gb": self.stats.savings_gb,
            "savings_cores": self.stats.savings_cores,
        }


def build_prediction_model(policy: PolicyConfig, history_vms: Sequence[VMRecord],
                           n_estimators: int = 15) -> object:
    """Construct the prediction model appropriate for a policy.

    * ``NONE`` policy -> :class:`NoOversubscriptionModel`.
    * otherwise -> a :class:`LongTermUtilizationModel` trained on the history.

    Ablations and the ideal-allocation baseline that want perfect foresight
    build an :class:`~repro.prediction.utilization_model.OracleUtilizationModel`
    themselves and pass it as ``simulate_policy(prediction_model=...)``.
    """
    if not policy.oversubscribe:
        return NoOversubscriptionModel(policy.windows)
    model = LongTermUtilizationModel(
        windows=policy.windows,
        percentile=policy.percentile,
        n_estimators=n_estimators,
        min_history_vms=policy.min_history_vms,
    )
    model.fit(list(history_vms))
    return model
