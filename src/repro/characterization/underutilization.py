"""Underutilization characterization (Section 2.3, Figure 6)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.characterization import columnar
from repro.core.resources import Resource
from repro.trace.trace import Trace


def utilization_scatter(trace: Trace, min_days: float = 1.0) -> Dict[str, List[float]]:
    """Figure 6: mean utilization and P95-P5 range for CPU and memory per VM.

    Segment means plus one sorted-segment percentile pass over the store
    (:func:`repro.characterization.columnar.utilization_scatter`), bitwise
    equal to :func:`reference_utilization_scatter`.
    """
    return columnar.utilization_scatter(trace, min_days)


def reference_utilization_scatter(trace: Trace, min_days: float = 1.0
                                  ) -> Dict[str, List[float]]:
    """Per-VM reference of :func:`utilization_scatter`."""
    rows: Dict[str, List[float]] = {
        "vm_id": [], "cpu_mean": [], "memory_mean": [],
        "cpu_range": [], "memory_range": [],
        "network_mean": [], "ssd_mean": [],
    }
    for vm in trace.long_running(min_days):
        rows["vm_id"].append(vm.vm_id)
        rows["cpu_mean"].append(vm.mean_utilization(Resource.CPU))
        rows["memory_mean"].append(vm.mean_utilization(Resource.MEMORY))
        rows["cpu_range"].append(vm.series(Resource.CPU).utilization_range())
        rows["memory_range"].append(vm.series(Resource.MEMORY).utilization_range())
        rows["network_mean"].append(vm.mean_utilization(Resource.NETWORK))
        rows["ssd_mean"].append(vm.mean_utilization(Resource.SSD))
    return rows


def utilization_summary(trace: Trace, min_days: float = 1.0) -> Dict[str, float]:
    """Headline statistics quoted in the Section 2.3 text."""
    return _summarize(utilization_scatter(trace, min_days))


def reference_utilization_summary(trace: Trace, min_days: float = 1.0
                                  ) -> Dict[str, float]:
    """:func:`utilization_summary` over :func:`reference_utilization_scatter`."""
    return _summarize(reference_utilization_scatter(trace, min_days))


def _summarize(scatter: Dict[str, List[float]]) -> Dict[str, float]:
    cpu_mean = np.asarray(scatter["cpu_mean"])
    mem_range = np.asarray(scatter["memory_range"])
    cpu_range = np.asarray(scatter["cpu_range"])
    if cpu_mean.size == 0:
        return {"n_vms": 0.0}
    return {
        "n_vms": float(cpu_mean.size),
        "fraction_cpu_mean_below_50": float(np.mean(cpu_mean < 0.5)),
        "median_cpu_range": float(np.median(cpu_range)),
        "median_memory_range": float(np.median(mem_range)),
        "fraction_memory_range_below_10": float(np.mean(mem_range < 0.10)),
        "fraction_memory_range_above_50": float(np.mean(mem_range > 0.50)),
        "cpu_memory_mean_correlation": float(np.corrcoef(
            scatter["cpu_mean"], scatter["memory_mean"])[0, 1])
        if cpu_mean.size > 1 else 0.0,
    }
