"""Temporal pattern characterization (Section 2.3, Figures 7, 8 and 9)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.characterization import columnar
from repro.core.resources import Resource
from repro.trace.timeseries import SWEEP_WINDOW_HOURS, TimeWindowConfig
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


def vm_week_profile(vm: VMRecord, resource: Resource = Resource.CPU,
                    window_hours: int = 8) -> Dict[str, np.ndarray]:
    """Figure 7: a VM's utilization with per-window current and lifetime maxima.

    The raw utilization comes back as a read-only view: for a trace's VMs
    ``series.values`` is already a zero-copy slice of the shared telemetry
    buffer, and copying it per figure would defeat that layout.
    """
    config = TimeWindowConfig(window_hours)
    series = vm.series(resource)
    utilization = series.values.view()
    utilization.flags.writeable = False
    return {
        "utilization": utilization,
        "current_window_max": series.window_max_per_day(config),
        "lifetime_window_max": series.lifetime_window_max(config),
    }


def peaks_and_valleys_by_window(trace: Trace, resource: Resource = Resource.CPU,
                                window_hours: int = 4, min_days: float = 1.0,
                                threshold: float = 0.05) -> Dict[str, np.ndarray]:
    """Figure 8: share of VMs with a peak/valley in each window-of-day, per weekday.

    Returns arrays of shape ``(7, windows_per_day)`` (peaks and valleys) plus a
    length-7 array with the fraction of VM-days without any peak.  Shares are
    normalised by the number of VM-days with a peak (valley) on that weekday,
    as the paper does.
    """
    return columnar.peaks_and_valleys(trace, resource, window_hours, min_days,
                                      threshold)


def reference_peaks_and_valleys_by_window(
        trace: Trace, resource: Resource = Resource.CPU, window_hours: int = 4,
        min_days: float = 1.0, threshold: float = 0.05) -> Dict[str, np.ndarray]:
    """Per-VM reference of :func:`peaks_and_valleys_by_window`."""
    config = TimeWindowConfig(window_hours)
    peak_counts = np.zeros((7, config.windows_per_day))
    valley_counts = np.zeros((7, config.windows_per_day))
    days_with_peak = np.zeros(7)
    days_total = np.zeros(7)
    none_counts = np.zeros(7)

    for vm in trace.long_running(min_days):
        series = vm.series(resource)
        for day, peaks, valleys in series.daily_peaks_and_valleys(config, threshold):
            weekday = day % 7
            days_total[weekday] += 1
            if not peaks:
                none_counts[weekday] += 1
                continue
            days_with_peak[weekday] += 1
            for window in peaks:
                peak_counts[weekday, window] += 1
            for window in valleys:
                valley_counts[weekday, window] += 1

    with np.errstate(divide="ignore", invalid="ignore"):
        peak_share = np.where(days_with_peak[:, None] > 0,
                              peak_counts / np.maximum(days_with_peak[:, None], 1), 0.0)
        valley_share = np.where(days_with_peak[:, None] > 0,
                                valley_counts / np.maximum(days_with_peak[:, None], 1), 0.0)
        none_share = np.where(days_total > 0, none_counts / np.maximum(days_total, 1), 0.0)
    return {"peaks": peak_share, "valleys": valley_share, "none": none_share,
            "windows_per_day": np.array([config.windows_per_day])}


def peak_consistency_cdf(trace: Trace, resource: Resource = Resource.CPU,
                         window_hours_sweep: Sequence[int] = SWEEP_WINDOW_HOURS,
                         min_days: float = 2.0,
                         diff_grid: Optional[Sequence[float]] = None
                         ) -> Dict[int, Dict[str, List[float]]]:
    """Figure 9: CDF of day-over-day differences in window maxima.

    For each window length, returns the fraction of (VM, window, day-pair)
    samples whose absolute difference is at most each grid value.
    """
    return columnar.peak_consistency_cdf(trace, resource, window_hours_sweep,
                                         min_days, _diff_grid(diff_grid))


def reference_peak_consistency_cdf(
        trace: Trace, resource: Resource = Resource.CPU,
        window_hours_sweep: Sequence[int] = SWEEP_WINDOW_HOURS,
        min_days: float = 2.0, diff_grid: Optional[Sequence[float]] = None
) -> Dict[int, Dict[str, List[float]]]:
    """Per-VM reference of :func:`peak_consistency_cdf`."""
    grid = _diff_grid(diff_grid)
    results: Dict[int, Dict[str, List[float]]] = {}
    vms = trace.long_running(min_days).vms
    for window_hours in window_hours_sweep:
        config = TimeWindowConfig(window_hours)
        diffs: List[np.ndarray] = []
        for vm in vms:
            d = vm.series(resource).peak_consistency(config)
            if d.size:
                diffs.append(d)
        if diffs:
            all_diffs = np.concatenate(diffs)
            cdf = [float(np.mean(all_diffs <= g + 1e-12)) for g in grid]
        else:
            cdf = [0.0 for _ in grid]
        results[window_hours] = {"diff_threshold": [float(g) for g in grid], "cdf": cdf}
    return results


def _diff_grid(diff_grid: Optional[Sequence[float]]) -> List[float]:
    return list(diff_grid) if diff_grid is not None else [x / 100 for x in range(0, 55, 5)]


def fraction_consistent(trace: Trace, resource: Resource = Resource.CPU,
                        window_hours: int = 6, tolerance: float = 0.20,
                        min_days: float = 2.0) -> float:
    """Headline number from Figure 9 (e.g. 80% of CPU diffs within 20%)."""
    cdfs = peak_consistency_cdf(trace, resource, [window_hours], min_days)
    grid = cdfs[window_hours]["diff_threshold"]
    cdf = cdfs[window_hours]["cdf"]
    for threshold, value in zip(grid, cdf):
        if threshold >= tolerance - 1e-12:
            return value
    return cdf[-1] if cdf else 0.0
