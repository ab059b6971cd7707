"""Characterization of allocated resources (Section 2.1, Figures 2 and 3)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.characterization import columnar
from repro.core.resources import Resource
from repro.trace.trace import Trace

#: Duration thresholds of Figure 2, in hours.
DURATION_THRESHOLDS_HOURS: Sequence[float] = (
    5 / 60, 0.5, 1, 2, 6, 12, 24, 48, 96, 168)

#: Size thresholds of Figure 3.
CORE_THRESHOLDS: Sequence[int] = (1, 2, 4, 8, 16, 32, 40)
MEMORY_THRESHOLDS_GB: Sequence[int] = (4, 8, 16, 32, 64, 128, 256, 512)


def resource_hours_by_duration(trace: Trace,
                               thresholds_hours: Sequence[float] = DURATION_THRESHOLDS_HOURS,
                               ) -> Dict[str, List[float]]:
    """Figure 2: share of resource-hours and of VMs from VMs lasting longer
    than each duration threshold."""
    return _duration_rows(*columnar.duration_columns(trace), thresholds_hours)


def reference_resource_hours_by_duration(
        trace: Trace,
        thresholds_hours: Sequence[float] = DURATION_THRESHOLDS_HOURS,
) -> Dict[str, List[float]]:
    """Per-VM reference of :func:`resource_hours_by_duration`."""
    durations = np.array([vm.lifetime_hours for vm in trace.vms])
    cpu_hours = np.array([vm.resource_hours(Resource.CPU) for vm in trace.vms])
    mem_hours = np.array([vm.resource_hours(Resource.MEMORY) for vm in trace.vms])
    return _duration_rows(durations, cpu_hours, mem_hours, thresholds_hours)


def _duration_rows(durations: np.ndarray, cpu_hours: np.ndarray,
                   mem_hours: np.ndarray,
                   thresholds_hours: Sequence[float]) -> Dict[str, List[float]]:
    total_cpu = max(cpu_hours.sum(), 1e-9)
    total_mem = max(mem_hours.sum(), 1e-9)
    n_vms = max(durations.size, 1)

    rows: Dict[str, List[float]] = {"threshold_hours": [], "cpu_hours_pct": [],
                                    "memory_hours_pct": [], "vms_pct": []}
    for threshold in thresholds_hours:
        mask = durations > threshold
        rows["threshold_hours"].append(float(threshold))
        rows["cpu_hours_pct"].append(100.0 * float(cpu_hours[mask].sum()) / total_cpu)
        rows["memory_hours_pct"].append(100.0 * float(mem_hours[mask].sum()) / total_mem)
        rows["vms_pct"].append(100.0 * float(mask.sum()) / n_vms)
    return rows


def resource_hours_by_size(trace: Trace,
                           core_thresholds: Sequence[int] = CORE_THRESHOLDS,
                           memory_thresholds: Sequence[int] = MEMORY_THRESHOLDS_GB,
                           ) -> Dict[str, Dict[str, List[float]]]:
    """Figure 3: share of resource-hours and of VMs from VMs at least as large
    as each size threshold (cores on the left, memory on the right)."""
    return _size_rows(*columnar.size_columns(trace), core_thresholds,
                      memory_thresholds)


def reference_resource_hours_by_size(
        trace: Trace,
        core_thresholds: Sequence[int] = CORE_THRESHOLDS,
        memory_thresholds: Sequence[int] = MEMORY_THRESHOLDS_GB,
) -> Dict[str, Dict[str, List[float]]]:
    """Per-VM reference of :func:`resource_hours_by_size`."""
    cores = np.array([vm.config.cores for vm in trace.vms])
    memory = np.array([vm.config.memory_gb for vm in trace.vms])
    cpu_hours = np.array([vm.resource_hours(Resource.CPU) for vm in trace.vms])
    mem_hours = np.array([vm.resource_hours(Resource.MEMORY) for vm in trace.vms])
    return _size_rows(cores, memory, cpu_hours, mem_hours, core_thresholds,
                      memory_thresholds)


def _size_rows(cores: np.ndarray, memory: np.ndarray, cpu_hours: np.ndarray,
               mem_hours: np.ndarray, core_thresholds: Sequence[int],
               memory_thresholds: Sequence[int]
               ) -> Dict[str, Dict[str, List[float]]]:
    total_cpu = max(cpu_hours.sum(), 1e-9)
    total_mem = max(mem_hours.sum(), 1e-9)
    n_vms = max(cores.size, 1)

    by_cores: Dict[str, List[float]] = {"threshold": [], "resource_hours_pct": [], "vms_pct": []}
    for threshold in core_thresholds:
        mask = cores >= threshold
        by_cores["threshold"].append(float(threshold))
        by_cores["resource_hours_pct"].append(100.0 * float(cpu_hours[mask].sum()) / total_cpu)
        by_cores["vms_pct"].append(100.0 * float(mask.sum()) / n_vms)

    by_memory: Dict[str, List[float]] = {"threshold": [], "resource_hours_pct": [], "vms_pct": []}
    for threshold in memory_thresholds:
        mask = memory >= threshold
        by_memory["threshold"].append(float(threshold))
        by_memory["resource_hours_pct"].append(100.0 * float(mem_hours[mask].sum()) / total_mem)
        by_memory["vms_pct"].append(100.0 * float(mask.sum()) / n_vms)

    return {"cores": by_cores, "memory": by_memory}


def median_vm_shape(trace: Trace) -> Dict[str, float]:
    """Median VM size statistics quoted in Section 2.1."""
    return columnar.median_vm_shape(trace)


def reference_median_vm_shape(trace: Trace) -> Dict[str, float]:
    """Per-VM reference of :func:`median_vm_shape`."""
    cores = sorted(vm.config.cores for vm in trace.vms)
    memory = sorted(vm.config.memory_gb for vm in trace.vms)
    mid = len(cores) // 2
    return {
        "median_cores": float(cores[mid]) if cores else 0.0,
        "median_memory_gb": float(memory[mid]) if memory else 0.0,
        "n_vms": float(len(cores)),
    }
