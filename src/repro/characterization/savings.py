"""Potential savings from time-window packing (Section 2.3, Figures 10 and 11).

The savings of a VM in a time window is the difference between its lifetime
maximum utilization (what a pattern-oblivious oversubscriber must reserve) and
its maximum utilization within that window (what a time-window-aware packer
reserves).  ``ideal`` multiplexes every 5-minute slot individually.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.characterization import columnar
from repro.core.resources import Resource
from repro.trace.timeseries import SLOTS_PER_DAY, SWEEP_WINDOW_HOURS, TimeWindowConfig
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


def vm_window_savings(vm: VMRecord, resource: Resource,
                      window_hours: Optional[int]) -> float:
    """Average savings fraction for one VM.

    ``window_hours=None`` computes the ideal (per-slot) savings.  The result
    is the mean over time of ``lifetime_max - window_max``, as a fraction of
    the allocated resource.
    """
    series = vm.series(resource)
    lifetime_max = series.maximum()
    if window_hours is None:
        return float(np.mean(lifetime_max - series.values))
    config = TimeWindowConfig(window_hours)
    per_day = series.window_max_per_day(config)
    valid = ~np.isnan(per_day)
    if not valid.any():
        return 0.0
    return float(np.mean(lifetime_max - per_day[valid]))


def cluster_savings(trace: Trace, cluster_id: Optional[str] = None,
                    window_hours_sweep: Sequence[Optional[int]] = SWEEP_WINDOW_HOURS,
                    include_ideal: bool = True, min_days: float = 1.0
                    ) -> Dict[str, Dict[str, float]]:
    """Figure 10/11 input: mean savings per window length for one cluster.

    Returns ``{window_label: {"cpu": pct, "memory": pct}}`` where the label is
    e.g. ``"4x6hr"`` or ``"ideal"`` and values are percentages of allocated
    resources saved, averaged across VMs.
    """
    return columnar.cluster_savings(trace, cluster_id, window_hours_sweep,
                                    include_ideal, min_days)


def reference_cluster_savings(
        trace: Trace, cluster_id: Optional[str] = None,
        window_hours_sweep: Sequence[Optional[int]] = SWEEP_WINDOW_HOURS,
        include_ideal: bool = True, min_days: float = 1.0
) -> Dict[str, Dict[str, float]]:
    """Per-VM reference of :func:`cluster_savings`."""
    vms = trace.long_running(min_days).vms
    if cluster_id is not None:
        vms = [vm for vm in vms if vm.cluster_id == cluster_id]
    sweep: List[Optional[int]] = list(window_hours_sweep)
    if include_ideal:
        sweep.append(None)

    results: Dict[str, Dict[str, float]] = {}
    for window_hours in sweep:
        label = "ideal" if window_hours is None else f"{24 // window_hours}x{window_hours}hr"
        cpu = [vm_window_savings(vm, Resource.CPU, window_hours) for vm in vms]
        mem = [vm_window_savings(vm, Resource.MEMORY, window_hours) for vm in vms]
        results[label] = {
            "cpu": 100.0 * float(np.mean(cpu)) if cpu else 0.0,
            "memory": 100.0 * float(np.mean(mem)) if mem else 0.0,
        }
    return results


def weekly_savings_profile(trace: Trace, cluster_id: Optional[str] = None,
                           window_hours_sweep: Sequence[int] = SWEEP_WINDOW_HOURS,
                           min_days: float = 1.0) -> Dict[str, Dict[str, List[float]]]:
    """Figure 10: per-day savings for one cluster across window lengths.

    Returns ``{label: {"cpu": [pct per day], "memory": [...]}}``.
    """
    return columnar.weekly_savings_profile(trace, cluster_id,
                                           window_hours_sweep, min_days)


def reference_weekly_savings_profile(
        trace: Trace, cluster_id: Optional[str] = None,
        window_hours_sweep: Sequence[int] = SWEEP_WINDOW_HOURS,
        min_days: float = 1.0) -> Dict[str, Dict[str, List[float]]]:
    """Per-VM reference of :func:`weekly_savings_profile`."""
    vms = trace.long_running(min_days).vms
    if cluster_id is not None:
        vms = [vm for vm in vms if vm.cluster_id == cluster_id]
    n_days = int(np.ceil(trace.n_days))

    results: Dict[str, Dict[str, List[float]]] = {}
    for window_hours in window_hours_sweep:
        config = TimeWindowConfig(window_hours)
        cpu_by_day = [[] for _ in range(n_days)]
        mem_by_day = [[] for _ in range(n_days)]
        for vm in vms:
            for resource, target in ((Resource.CPU, cpu_by_day), (Resource.MEMORY, mem_by_day)):
                series = vm.series(resource)
                lifetime_max = series.maximum()
                per_day = series.window_max_per_day(config)
                first_day = vm.start_slot // SLOTS_PER_DAY
                for offset in range(per_day.shape[0]):
                    day = first_day + offset
                    if day >= n_days:
                        continue
                    row = per_day[offset]
                    valid = row[~np.isnan(row)]
                    if valid.size:
                        target[day].append(float(np.mean(lifetime_max - valid)))
        label = f"{24 // window_hours}x{window_hours}hr"
        results[label] = {
            "cpu": [100.0 * float(np.mean(day)) if day else 0.0 for day in cpu_by_day],
            "memory": [100.0 * float(np.mean(day)) if day else 0.0 for day in mem_by_day],
        }
    return results


def savings_distribution(trace: Trace,
                         window_hours_sweep: Sequence[Optional[int]] = SWEEP_WINDOW_HOURS,
                         include_ideal: bool = True, min_days: float = 1.0
                         ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 11: distribution of per-cluster savings across all clusters.

    Returns ``{label: {"cpu": stats, "memory": stats}}`` where stats contains
    the min/P25/median/P75/max of the per-cluster mean savings -- the numbers
    a violin plot would display.
    """
    per_cluster = {cluster_id: cluster_savings(trace, cluster_id, window_hours_sweep,
                                               include_ideal, min_days)
                   for cluster_id in trace.cluster_ids()}
    labels = next(iter(per_cluster.values())).keys() if per_cluster else []

    def stats(values: List[float]) -> Dict[str, float]:
        if not values:
            return {k: 0.0 for k in ("min", "p25", "median", "p75", "max")}
        arr = np.asarray(values)
        return {
            "min": float(arr.min()),
            "p25": float(np.percentile(arr, 25)),
            "median": float(np.median(arr)),
            "p75": float(np.percentile(arr, 75)),
            "max": float(arr.max()),
        }

    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label in labels:
        cpu_values = [per_cluster[c][label]["cpu"] for c in per_cluster]
        mem_values = [per_cluster[c][label]["memory"] for c in per_cluster]
        result[label] = {"cpu": stats(cpu_values), "memory": stats(mem_values)}
    return result
