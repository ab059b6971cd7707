"""Stranded-resource characterization (Section 2.2, Figures 4 and 5).

To measure stranding, hypothetical VMs of the most typical configuration
(4 GB/core D-series) are packed onto each server until one resource is
exhausted; whatever remains unallocated is stranded, and the exhausted
resource is the server's bottleneck.  Oversubscribing CPU (or CPU and memory)
lets the hypothetical fill also use underutilized allocated resources,
shifting both stranding and the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.characterization import columnar
from repro.core.resources import ALL_RESOURCES, Resource
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.trace import Trace
from repro.trace.vm import TYPICAL_VM_CONFIG, VMConfig

#: The three oversubscription scenarios of Figures 4 and 5.
OVERSUBSCRIPTION_SCENARIOS = ("no-oversub", "cpu-only", "cpu+memory")


@dataclass
class StrandingResult:
    """Aggregated stranding statistics for one scenario."""

    scenario: str
    #: Mean stranded fraction per resource (over servers and sampled slots).
    stranded_fraction: Dict[Resource, float]
    #: Fraction of (server, slot) samples where each resource is the
    #: bottleneck for new allocations.
    bottleneck_fraction: Dict[Resource, float]
    #: Per-cluster bottleneck fractions (cluster -> resource -> fraction).
    per_cluster_bottleneck: Dict[str, Dict[Resource, float]]


def _oversubscribable(scenario: str) -> Dict[Resource, bool]:
    if scenario == "no-oversub":
        return {r: False for r in ALL_RESOURCES}
    if scenario == "cpu-only":
        return {r: r is Resource.CPU for r in ALL_RESOURCES}
    if scenario == "cpu+memory":
        return {r: r in (Resource.CPU, Resource.MEMORY) for r in ALL_RESOURCES}
    raise ValueError(f"unknown scenario {scenario!r}; expected one of "
                     f"{OVERSUBSCRIPTION_SCENARIOS}")


def _fill_server(free: Dict[Resource, float], fill_vm: VMConfig) -> Resource:
    """Pack hypothetical VMs into the free vector; return the bottleneck resource."""
    demand = fill_vm.allocation_vector()
    fits = {r: (free[r] / demand[r] if demand[r] > 0 else np.inf) for r in ALL_RESOURCES}
    n_fit = int(max(0.0, min(fits.values())))
    for resource in ALL_RESOURCES:
        free[resource] -= n_fit * demand[resource]
    # After filling, the bottleneck is the resource that can fit the fewest
    # additional VMs (ties broken by canonical order).
    remaining = {r: (free[r] / demand[r] if demand[r] > 0 else np.inf) for r in ALL_RESOURCES}
    return min(ALL_RESOURCES, key=lambda r: remaining[r])


def measure_stranding(trace: Trace, scenario: str = "no-oversub",
                      fill_vm: VMConfig = TYPICAL_VM_CONFIG,
                      sample_every_slots: int = SLOTS_PER_DAY // 4,
                      clusters: Optional[Sequence[str]] = None) -> StrandingResult:
    """Measure stranding and bottlenecks for one oversubscription scenario.

    For every sampled slot and every server-equivalent of capacity in each
    cluster, VMs alive at that slot are assigned their requested allocation
    (or their utilized amount for oversubscribed resources), hypothetical fill
    VMs are packed into the remainder, and the leftovers are stranded.

    Every cluster's per-slot free vector and bottleneck come from a handful
    of array passes over the store; the totals still accumulate slot by
    slot in the reference's order, so the sequential float additions (and
    every reported fraction) are bitwise those of
    :func:`reference_measure_stranding`.  Raises ``ValueError`` for a
    *fill_vm* that demands no resource, which would fit without bound.
    """
    oversub, cluster_ids = _scenario_inputs(trace, scenario, fill_vm, clusters)
    return _stranding_result(trace, scenario, cluster_ids,
                             columnar.stranding_inputs(
                                 trace, oversub, fill_vm, sample_every_slots,
                                 cluster_ids))


def reference_measure_stranding(trace: Trace, scenario: str = "no-oversub",
                                fill_vm: VMConfig = TYPICAL_VM_CONFIG,
                                sample_every_slots: int = SLOTS_PER_DAY // 4,
                                clusters: Optional[Sequence[str]] = None
                                ) -> StrandingResult:
    """Per-VM reference of :func:`measure_stranding`."""
    oversub, cluster_ids = _scenario_inputs(trace, scenario, fill_vm, clusters)
    per_cluster: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for cluster_id in cluster_ids:
        capacity = trace.fleet.get(cluster_id).total_capacity()
        cluster_vms = [vm for vm in trace.vms if vm.cluster_id == cluster_id]
        frees: List[List[float]] = []
        bottlenecks: List[int] = []
        for slot in range(0, trace.n_slots, max(1, sample_every_slots)):
            alive = [vm for vm in cluster_vms if vm.alive_at(slot)]
            used = {r: 0.0 for r in ALL_RESOURCES}
            for vm in alive:
                for resource in ALL_RESOURCES:
                    if oversub[resource]:
                        used[resource] += vm.demand_at(resource, slot)
                    else:
                        used[resource] += vm.allocated(resource)
            free = {r: max(0.0, capacity[r] - used[r]) for r in ALL_RESOURCES}
            bottlenecks.append(ALL_RESOURCES.index(_fill_server(free, fill_vm)))
            frees.append([free[r] for r in ALL_RESOURCES])
        per_cluster[cluster_id] = (np.array(frees).T, np.array(bottlenecks))
    return _stranding_result(trace, scenario, cluster_ids, per_cluster)


def _scenario_inputs(trace: Trace, scenario: str, fill_vm: VMConfig,
                     clusters: Optional[Sequence[str]]
                     ) -> Tuple[Dict[Resource, bool], List[str]]:
    oversub = _oversubscribable(scenario)
    demand = fill_vm.allocation_vector()
    if not any(demand[r] > 0 for r in ALL_RESOURCES):
        raise ValueError(f"fill VM {fill_vm.name!r} demands no resource, so "
                         f"any number of them fits a server")
    return oversub, list(clusters) if clusters else trace.cluster_ids()


def _stranding_result(trace: Trace, scenario: str, cluster_ids: Sequence[str],
                      per_cluster: Dict[str, Tuple[np.ndarray, np.ndarray]]
                      ) -> StrandingResult:
    """Accumulate per-cluster ``(free, bottleneck_index)`` samples (shapes
    ``(len(ALL_RESOURCES), n_samples)`` and ``(n_samples,)``) slot by slot."""
    stranded_totals = {r: 0.0 for r in ALL_RESOURCES}
    capacity_totals = {r: 0.0 for r in ALL_RESOURCES}
    bottleneck_counts = {r: 0 for r in ALL_RESOURCES}
    per_cluster_counts: Dict[str, Dict[Resource, int]] = {}
    samples = 0

    for cluster_id in cluster_ids:
        capacity = trace.fleet.get(cluster_id).total_capacity()
        cluster_counts = {r: 0 for r in ALL_RESOURCES}
        cluster_samples = 0
        free_matrix, bottleneck_index = per_cluster[cluster_id]
        for j in range(bottleneck_index.size):
            bottleneck = ALL_RESOURCES[bottleneck_index[j]]
            samples += 1
            cluster_samples += 1
            bottleneck_counts[bottleneck] += 1
            cluster_counts[bottleneck] += 1
            for r_index, resource in enumerate(ALL_RESOURCES):
                stranded_totals[resource] += float(free_matrix[r_index, j])
                capacity_totals[resource] += capacity[resource]

        per_cluster_counts[cluster_id] = {
            r: (cluster_counts[r] / cluster_samples if cluster_samples else 0.0)
            for r in ALL_RESOURCES}

    stranded_fraction = {
        r: (stranded_totals[r] / capacity_totals[r] if capacity_totals[r] else 0.0)
        for r in ALL_RESOURCES}
    bottleneck_fraction = {
        r: (bottleneck_counts[r] / samples if samples else 0.0) for r in ALL_RESOURCES}
    return StrandingResult(scenario, stranded_fraction, bottleneck_fraction,
                           {cid: {r: float(v) for r, v in row.items()}
                            for cid, row in per_cluster_counts.items()})


def stranding_by_scenario(trace: Trace,
                          scenarios: Sequence[str] = OVERSUBSCRIPTION_SCENARIOS,
                          **kwargs) -> Dict[str, StrandingResult]:
    """Figures 4 and 5: stranding and bottlenecks for every scenario."""
    return {scenario: measure_stranding(trace, scenario, **kwargs)
            for scenario in scenarios}


def reference_stranding_by_scenario(
        trace: Trace, scenarios: Sequence[str] = OVERSUBSCRIPTION_SCENARIOS,
        **kwargs) -> Dict[str, StrandingResult]:
    """:func:`stranding_by_scenario` over :func:`reference_measure_stranding`."""
    return {scenario: reference_measure_stranding(trace, scenario, **kwargs)
            for scenario in scenarios}
