"""Result records produced by the cluster-scale simulations."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class ViolationStats:
    """Contention accounting for one policy run (Figure 20b).

    Counts are the source of truth; the fractions are derived from them so
    stats from independent clusters can be merged exactly (integer sums)
    instead of re-weighting floating-point fractions.  The per-server dicts
    record, for every server that hosted at least one occupied slot, how many
    slots were observed and how many violated each resource.
    """

    #: Fraction of occupied server-slots with CPU contention.
    cpu_violation_fraction: float = 0.0
    #: Fraction of occupied server-slots with memory contention.
    memory_violation_fraction: float = 0.0
    #: Number of (server, slot) pairs inspected.
    observed_server_slots: int = 0
    #: Number of occupied server-slots with CPU contention.
    cpu_violation_slots: int = 0
    #: Number of occupied server-slots with memory contention.
    memory_violation_slots: int = 0
    #: Per-server breakdowns, keyed by server id (occupied servers only).
    per_server_observed: Dict[str, int] = field(default_factory=dict)
    per_server_cpu_violations: Dict[str, int] = field(default_factory=dict)
    per_server_memory_violations: Dict[str, int] = field(default_factory=dict)

    @property
    def cpu_violation_pct(self) -> float:
        return 100.0 * self.cpu_violation_fraction

    @property
    def memory_violation_pct(self) -> float:
        return 100.0 * self.memory_violation_fraction

    @classmethod
    def from_counts(cls,
                    per_server_observed: Dict[str, int],
                    per_server_cpu_violations: Dict[str, int],
                    per_server_memory_violations: Dict[str, int]) -> "ViolationStats":
        """Build stats from per-server counts, deriving totals and fractions."""
        observed = sum(per_server_observed.values())
        cpu = sum(per_server_cpu_violations.values())
        mem = sum(per_server_memory_violations.values())
        return cls(
            cpu_violation_fraction=cpu / observed if observed else 0.0,
            memory_violation_fraction=mem / observed if observed else 0.0,
            observed_server_slots=observed,
            cpu_violation_slots=cpu,
            memory_violation_slots=mem,
            per_server_observed=per_server_observed,
            per_server_cpu_violations=per_server_cpu_violations,
            per_server_memory_violations=per_server_memory_violations,
        )

    @classmethod
    def merge(cls, parts: Iterable["ViolationStats"]) -> "ViolationStats":
        """Exact aggregation across clusters.

        Server ids must be globally unique across the merged parts (they are
        prefixed with the cluster id); a collision -- e.g. the same cluster
        simulated twice via a duplicated ``SimulationConfig.clusters`` entry
        -- would silently drop counts, so it fails loudly instead.
        """
        observed: Dict[str, int] = {}
        cpu: Dict[str, int] = {}
        mem: Dict[str, int] = {}
        n_servers = 0
        for part in parts:
            observed.update(part.per_server_observed)
            cpu.update(part.per_server_cpu_violations)
            mem.update(part.per_server_memory_violations)
            n_servers += len(part.per_server_observed)
        if len(observed) != n_servers:
            raise ValueError(
                "duplicate server ids across merged ViolationStats "
                "(was the same cluster simulated twice?)")
        return cls.from_counts(observed, cpu, mem)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (plain ints/floats/dicts), used by the
        benchmark-tracking script and report generators."""
        return asdict(self)


@dataclass
class PolicyEvaluation:
    """Packing and violation outcome of one oversubscription policy."""

    policy_name: str
    requested_vms: int
    accepted_vms: int
    rejected_vms: int
    servers_in_use: int
    servers_total: int
    accepted_core_requests: float
    accepted_memory_requests_gb: float
    #: Average number of VMs hosted concurrently during the evaluation period.
    average_concurrent_vms: float = 0.0
    #: Average requested cores hosted concurrently (sellable capacity proxy).
    average_concurrent_cores: float = 0.0
    #: Average requested memory hosted concurrently, GB.
    average_concurrent_memory_gb: float = 0.0
    violations: ViolationStats = field(default_factory=ViolationStats)
    #: Additional sellable capacity relative to the no-oversubscription run
    #: (populated by :func:`compare_policies`).
    additional_capacity_pct: Optional[float] = None
    server_reduction_pct: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, including the nested ViolationStats."""
        return asdict(self)


def compare_policies(results: Dict[str, PolicyEvaluation],
                     baseline: str = "none") -> Dict[str, PolicyEvaluation]:
    """Fill in capacity gains relative to the baseline policy.

    Additional capacity follows the paper's definition: the extra VMs the
    platform can host compared to not oversubscribing, measured as the
    increase in concurrently hosted VMs.  Server reduction is the drop in
    servers needed to host the same load, approximated by hosted VMs per
    server in use.
    """
    if baseline not in results:
        raise KeyError(f"baseline policy {baseline!r} missing from results")
    base = results[baseline]
    base_hosted = max(base.average_concurrent_cores, 1e-9)
    base_density = base.average_concurrent_cores / max(1, base.servers_in_use)
    for evaluation in results.values():
        evaluation.additional_capacity_pct = (
            100.0 * (evaluation.average_concurrent_cores - base.average_concurrent_cores)
            / base_hosted)
        density = evaluation.average_concurrent_cores / max(1, evaluation.servers_in_use)
        if density > 0:
            evaluation.server_reduction_pct = 100.0 * (1.0 - base_density / density)
    return results


@dataclass
class PredictionAccuracy:
    """Over/under-allocation statistics for Figure 19."""

    resource: str
    percentile: float
    #: Mean over-allocation error relative to the ideal allocation (%).
    over_allocation_error_pct: float
    #: Fraction of VMs whose planned allocation is below the ideal one (%).
    under_allocation_pct: float
    n_vms: int


@dataclass
class MitigationTimeline:
    """Time series produced by the Figure 21 single-server scenario."""

    policy_name: str
    times_seconds: List[float] = field(default_factory=list)
    available_oversub_gb: List[float] = field(default_factory=list)
    page_fault_gb: List[float] = field(default_factory=list)
    #: Normalised slowdown per workload VM over time.
    slowdown: Dict[str, List[float]] = field(default_factory=dict)

    def peak_slowdown(self, vm_id: str) -> float:
        series = self.slowdown.get(vm_id, [])
        return max(series) if series else 1.0

    def recovered(self, threshold_gb: float = 0.5) -> bool:
        """Whether the oversubscribed pool ends with available headroom."""
        return bool(self.available_oversub_gb) and self.available_oversub_gb[-1] >= threshold_gb
