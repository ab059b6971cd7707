"""Experiment harnesses: one function per paper figure/table.

Every function takes a trace (or generates one) plus the knobs the paper
sweeps, and returns plain dictionaries/lists with the same rows or series the
paper plots.  The benchmark suite calls these functions, and
``examples/reproduce_paper.py`` prints their output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.characterization import (
    group_predictability,
    peak_consistency_cdf,
    peaks_and_valleys_by_window,
    predictability_summary,
    resource_hours_by_duration,
    resource_hours_by_size,
    savings_distribution,
    stranding_by_scenario,
    utilization_scatter,
    utilization_summary,
    vm_week_profile,
    weekly_savings_profile,
)
from repro.core.policy import STANDARD_POLICIES, PolicyConfig
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.windows import allocation_matrix, plan_many
from repro.prediction.buckets import bucketize
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    OracleUtilizationModel,
)
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import PredictionAccuracy, ViolationStats
from repro.simulator.sweep import sweep_policies
from repro.trace.timeseries import SLOTS_PER_DAY, SWEEP_WINDOW_HOURS, TimeWindowConfig
from repro.trace.trace import Trace
from repro.workloads.base import summarize_results
from repro.workloads.runner import pa_va_sweep, run_all_mitigation_policies, run_figure18


# --------------------------------------------------------------------------- #
# Section 2: characterization figures
# --------------------------------------------------------------------------- #
def figure02_duration(trace: Trace) -> Dict[str, List[float]]:
    """Resource-hours and VM share by VM duration."""
    return resource_hours_by_duration(trace)


def figure03_size(trace: Trace) -> Dict[str, Dict[str, List[float]]]:
    """Resource-hours and VM share by VM size."""
    return resource_hours_by_size(trace)


def figure04_stranding(trace: Trace, sample_every_slots: int = SLOTS_PER_DAY // 2
                       ) -> Dict[str, Dict[str, float]]:
    """Average stranding per resource for each oversubscription scenario."""
    results = stranding_by_scenario(trace, sample_every_slots=sample_every_slots)
    return {scenario: {r.value: 100.0 * frac for r, frac in res.stranded_fraction.items()}
            for scenario, res in results.items()}


def figure05_bottlenecks(trace: Trace, sample_every_slots: int = SLOTS_PER_DAY // 2
                         ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-cluster bottleneck-resource shares for each scenario."""
    results = stranding_by_scenario(trace, sample_every_slots=sample_every_slots)
    return {scenario: {cluster: {r.value: 100.0 * frac for r, frac in row.items()}
                       for cluster, row in res.per_cluster_bottleneck.items()}
            for scenario, res in results.items()}


def figure06_utilization(trace: Trace) -> Dict[str, object]:
    """CPU/memory utilization scatter plus headline summary."""
    return {"scatter": utilization_scatter(trace), "summary": utilization_summary(trace)}


def figure07_vm_profile(trace: Trace, vm_id: Optional[str] = None) -> Dict[str, np.ndarray]:
    """A week-long CPU profile with per-window maxima for one long-running VM."""
    candidates = [vm for vm in trace.long_running(3.0) if vm.has_utilization()]
    if not candidates:
        raise ValueError("trace has no long-running VMs to profile")
    vm = trace.vm_by_id(vm_id) if vm_id else max(
        candidates, key=lambda v: v.series(Resource.CPU).utilization_range())
    return vm_week_profile(vm)


def figure08_peaks(trace: Trace) -> Dict[str, Dict[str, np.ndarray]]:
    """Peaks/valleys per 4-hour window for CPU and memory."""
    return {
        "cpu": peaks_and_valleys_by_window(trace, Resource.CPU),
        "memory": peaks_and_valleys_by_window(trace, Resource.MEMORY),
    }


def figure09_consistency(trace: Trace) -> Dict[str, Dict[int, Dict[str, List[float]]]]:
    """Day-over-day peak/valley difference CDFs for CPU and memory."""
    return {
        "cpu": peak_consistency_cdf(trace, Resource.CPU),
        "memory": peak_consistency_cdf(trace, Resource.MEMORY),
    }


def figure10_weekly_savings(trace: Trace, cluster_id: str = "C1") -> Dict[str, Dict[str, List[float]]]:
    """Per-day potential savings for one cluster across window lengths."""
    return weekly_savings_profile(trace, cluster_id)


def figure11_savings_distribution(trace: Trace) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Savings distribution (violin statistics) across all clusters."""
    return savings_distribution(trace)


def figure12_predictability(trace: Trace) -> Dict[str, object]:
    """Grouping-based predictability scatter and summary."""
    return {
        "memory": group_predictability(trace, Resource.MEMORY),
        "cpu": group_predictability(trace, Resource.CPU),
        "summary_memory": predictability_summary(trace, Resource.MEMORY),
        "summary_cpu": predictability_summary(trace, Resource.CPU, tolerance_pct=20.0),
    }


# --------------------------------------------------------------------------- #
# Section 3/4: design and evaluation figures
# --------------------------------------------------------------------------- #
def figure15_pa_va_tradeoff(step_gb: float = 4.0) -> Dict[str, List[float]]:
    """PA/VA slowdown and allocation heat map for a 32 GB VM (18 GB working set)."""
    points = pa_va_sweep(step_gb=step_gb)
    return {
        "pa_gb": [p.pa_gb for p in points],
        "va_gb": [p.va_gb for p in points],
        "slowdown": [p.slowdown for p in points],
        "allocated_gb": [p.allocated_gb for p in points],
    }


def figure17_oversub_accesses(trace: Trace,
                              percentiles: Sequence[float] = (65, 70, 75, 80, 85, 90, 95),
                              window_hours_sweep: Sequence[int] = SWEEP_WINDOW_HOURS,
                              resource: Resource = Resource.MEMORY,
                              min_days: float = 1.0) -> Dict[str, object]:
    """Expected accesses to oversubscribed memory vs prediction percentile.

    Assumes each VM uniformly accesses its utilized memory (as the paper
    does): in each slot, the fraction of accesses beyond the PA allocation is
    ``max(0, u - pa) / u``.
    """
    vms = trace.long_running(min_days).vms
    mean_table: Dict[int, Dict[float, float]] = {}
    cdf_4hr: Dict[float, List[float]] = {}

    for window_hours in window_hours_sweep:
        config = TimeWindowConfig(window_hours)
        mean_table[window_hours] = {}
        for percentile in percentiles:
            per_vm: List[float] = []
            for vm in vms:
                series = vm.series(resource)
                window_pct = series.lifetime_window_percentile(config, percentile)
                window_pct = window_pct[~np.isnan(window_pct)]
                if window_pct.size == 0:
                    continue
                pa_fraction = bucketize(float(window_pct.max()))
                utilization = series.values
                with np.errstate(divide="ignore", invalid="ignore"):
                    oversub = np.where(utilization > 1e-9,
                                       np.maximum(0.0, utilization - pa_fraction) / utilization,
                                       0.0)
                per_vm.append(float(oversub.mean()))
            mean_table[window_hours][percentile] = (
                100.0 * float(np.mean(per_vm)) if per_vm else 0.0)
            if window_hours == 4:
                cdf_4hr[percentile] = sorted(100.0 * v for v in per_vm)

    worst_case = {float(p): 100.0 - float(p) for p in percentiles}
    return {"mean_oversub_access_pct": mean_table, "cdf_4hr_pct": cdf_4hr,
            "worst_case_pct": worst_case}


def figure18_workloads() -> Dict[str, Dict[str, float]]:
    """Slowdown of every Table-2 workload under GPVM / CVM / CVM-Floor / OVM."""
    return summarize_results(run_figure18())


def figure19_prediction_accuracy(trace: Trace,
                                 percentiles: Sequence[float] = (95.0, 90.0, 85.0),
                                 n_estimators: int = 8,
                                 max_eval_vms: int = 200) -> List[PredictionAccuracy]:
    """Over-allocation error and under-allocation rate of the long-term model.

    The ideal allocation is the oracle plan built from the VM's actual future
    utilization; the planned allocation comes from the learned model trained
    on the first week.
    """
    history, future = trace.split_at(7 * SLOTS_PER_DAY)
    history_vms = history.long_running().vms
    eval_vms = [vm for vm in future.long_running().vms if vm.has_utilization()]
    eval_vms = eval_vms[:max_eval_vms]
    if not history_vms or not eval_vms:
        raise ValueError("trace too small for the prediction-accuracy experiment")

    results: List[PredictionAccuracy] = []
    vm_ids = [vm.vm_id for vm in eval_vms]
    allocations = allocation_matrix(eval_vms)
    for percentile in percentiles:
        windows = TimeWindowConfig(4)
        model = LongTermUtilizationModel(windows=windows, percentile=percentile,
                                         n_estimators=n_estimators)
        model.fit(history_vms)
        oracle = OracleUtilizationModel(windows, percentile)
        # Every evaluation VM is predicted, oracle-predicted and planned once
        # per percentile; both resources read the same plans.
        planned = plan_many(vm_ids, allocations, model.predict_many(eval_vms), True)
        ideal = plan_many(vm_ids, allocations, oracle.predict_many(eval_vms), True)
        for resource in (Resource.CPU, Resource.MEMORY):
            column = ALL_RESOURCES.index(resource)
            over_errors: List[float] = []
            under_count = 0
            for planned_amount, ideal_amount in zip(
                    planned.guaranteed[:, column].tolist(),
                    ideal.guaranteed[:, column].tolist()):
                if ideal_amount <= 1e-9:
                    continue
                if planned_amount + 1e-9 < ideal_amount:
                    under_count += 1
                else:
                    over_errors.append(100.0 * (planned_amount - ideal_amount) / ideal_amount)
            results.append(PredictionAccuracy(
                resource=resource.value,
                percentile=float(percentile),
                over_allocation_error_pct=float(np.mean(over_errors)) if over_errors else 0.0,
                under_allocation_pct=100.0 * under_count / len(eval_vms),
                n_vms=len(eval_vms),
            ))
    return results


def figure20_packing(trace: Trace,
                     policies: Optional[Dict[str, PolicyConfig]] = None,
                     clusters: Sequence[str] = ("C1", "C4", "C8"),
                     n_estimators: int = 5,
                     sweep_parallelism: int = 1) -> Dict[str, Dict[str, float]]:
    """Additional capacity and performance violations per policy.

    *sweep_parallelism* fans whole policies across worker processes (one
    policy per process, the GIL-free axis).  Results are bitwise identical
    for any worker count; see :mod:`repro.simulator.sweep`.
    """
    config = SimulationConfig(clusters=list(clusters), n_estimators=n_estimators,
                              sweep_parallelism=sweep_parallelism)
    results = sweep_policies(trace, policies or STANDARD_POLICIES, config)
    return {
        name: {
            "additional_capacity_pct": float(evaluation.additional_capacity_pct or 0.0),
            "cpu_violation_pct": evaluation.violations.cpu_violation_pct,
            "memory_violation_pct": evaluation.violations.memory_violation_pct,
            "accepted_vms": float(evaluation.accepted_vms),
            "average_concurrent_cores": evaluation.average_concurrent_cores,
            "servers_in_use": float(evaluation.servers_in_use),
            "server_reduction_pct": float(evaluation.server_reduction_pct or 0.0),
        }
        for name, evaluation in results.items()
    }


def _cluster_of_server(server_id: str) -> str:
    """Cluster id of a scheduler server id (``"C4-s017"`` -> ``"C4"``)."""
    cluster, sep, _index = server_id.rpartition("-s")
    return cluster if sep else server_id


def hotspot_report(violations: ViolationStats, top_n: int = 10) -> Dict[str, object]:
    """Per-server contention hotspots and per-cluster violation-rate CDFs.

    Surfaces the per-server breakdowns :class:`ViolationStats` records (the
    ROADMAP follow-up to the PR-2 replay work): which servers concentrate
    the contention -- the candidates for the paper's mitigation/migration
    actions -- and how violation rates distribute inside each cluster.

    Returns::

        {"n_servers": int,                     # servers with occupied slots
         "hotspots": [{"server_id", "cluster_id", "observed_slots",
                       "cpu_violation_slots", "memory_violation_slots",
                       "violation_rate"}, ...],       # worst top_n first
         "per_cluster": {cluster_id: {
             "n_servers": int,
             "observed_slots": int,
             "cpu_violation_slots": int,
             "memory_violation_slots": int,
             "violation_rate": [...],   # sorted per-server rates (CDF x)
             "cdf": [...],              # cumulative server fraction (CDF y)
         }}}

    The violation rate of a server is its CPU *plus* memory violation slots
    over its observed slots -- a combined contention-pressure score, not a
    fraction of slots: a slot violating both resources counts twice, so the
    rate can exceed 1 (``ViolationStats`` records the two counts separately
    and the union is not recoverable from them).  Server ids are the
    scheduler's ``<cluster>-s<index>`` names, so the grouping needs no
    extra lookup.
    """
    servers = []
    for server_id, observed in violations.per_server_observed.items():
        cpu = violations.per_server_cpu_violations.get(server_id, 0)
        memory = violations.per_server_memory_violations.get(server_id, 0)
        servers.append({
            "server_id": server_id,
            "cluster_id": _cluster_of_server(server_id),
            "observed_slots": int(observed),
            "cpu_violation_slots": int(cpu),
            "memory_violation_slots": int(memory),
            "violation_rate": (cpu + memory) / observed if observed else 0.0,
        })
    # Worst first; ties broken by id so the report is deterministic.
    servers.sort(key=lambda row: (-row["violation_rate"], row["server_id"]))

    per_cluster: Dict[str, Dict[str, object]] = {}
    for row in servers:
        bucket = per_cluster.setdefault(row["cluster_id"], {
            "n_servers": 0, "observed_slots": 0, "cpu_violation_slots": 0,
            "memory_violation_slots": 0, "violation_rate": []})
        bucket["n_servers"] += 1
        bucket["observed_slots"] += row["observed_slots"]
        bucket["cpu_violation_slots"] += row["cpu_violation_slots"]
        bucket["memory_violation_slots"] += row["memory_violation_slots"]
        bucket["violation_rate"].append(row["violation_rate"])
    for bucket in per_cluster.values():
        bucket["violation_rate"] = sorted(bucket["violation_rate"])
        n = bucket["n_servers"]
        bucket["cdf"] = [(i + 1) / n for i in range(n)]

    return {
        "n_servers": len(servers),
        "hotspots": servers[:top_n],
        "per_cluster": dict(sorted(per_cluster.items())),
    }


def figure21_mitigation(duration_seconds: float = 330.0,
                        interval_seconds: float = 15.0) -> Dict[str, Dict[str, object]]:
    """Mitigation-policy timelines for the contention scenario."""
    timelines = run_all_mitigation_policies(duration_seconds, interval_seconds)
    return {
        name: {
            "times_seconds": timeline.times_seconds,
            "available_oversub_gb": timeline.available_oversub_gb,
            "cache_slowdown": timeline.slowdown.get("cache", []),
            "kvstore_slowdown": timeline.slowdown.get("kvstore", []),
            "recovered": timeline.recovered(),
            "peak_cache_slowdown": timeline.peak_slowdown("cache"),
            "peak_kvstore_slowdown": timeline.peak_slowdown("kvstore"),
        }
        for name, timeline in timelines.items()
    }
