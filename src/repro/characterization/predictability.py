"""History-based predictability of new VMs (Section 2.3, Figure 12).

For every VM created in the second week of the trace, prior VMs from the same
group (subscription, VM configuration, or both) observed in the first week
are collected; the number of matches and the spread of their peak utilization
measure how predictive the grouping is, and comparing each VM's actual peak
with the group's average peak measures accuracy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.characterization import columnar
from repro.core.resources import Resource
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord

#: The three groupings compared in Figure 12.
GROUPINGS = ("subscription", "configuration", "subscription+configuration")


def _group_key(vm: VMRecord, grouping: str) -> Tuple[str, ...]:
    if grouping == "subscription":
        return (vm.subscription_id,)
    if grouping == "configuration":
        return (vm.config.name,)
    if grouping == "subscription+configuration":
        return (vm.subscription_id, vm.config.name)
    raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")


def _column_keys(subscriptions: np.ndarray, config_names: np.ndarray,
                 grouping: str) -> List[Tuple[str, ...]]:
    """Per-row group keys from the store's metadata columns."""
    if grouping == "subscription":
        return [(sid,) for sid in subscriptions]
    if grouping == "configuration":
        return [(name,) for name in config_names]
    if grouping == "subscription+configuration":
        return list(zip(subscriptions, config_names))
    raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")


def _columnar_detail(history_store, history_peaks: np.ndarray, future_store,
                     future_peaks: np.ndarray) -> Dict[str, Dict[str, List[float]]]:
    """The grouping statistics over columnar feature extraction.

    The telemetry-heavy step (per-VM peak utilization) arrives precomputed
    as one segment-max column per side; what remains is metadata grouping.
    Each group's range/mean is computed once instead of once per matching
    future VM, which changes nothing numerically (same array every time).
    """
    history_columns = (history_store.subscription_ids,
                       history_store.config_names())
    future_columns = (future_store.subscription_ids, future_store.config_names())
    results: Dict[str, Dict[str, List[float]]] = {}
    for grouping in GROUPINGS:
        groups: Dict[Tuple[str, ...], List[float]] = {}
        for key, peak in zip(_column_keys(*history_columns, grouping),
                             history_peaks):
            groups.setdefault(key, []).append(float(peak))
        group_stats: Dict[Tuple[str, ...], Tuple[float, float, float]] = {}
        for key, peaks in groups.items():
            arr = np.asarray(peaks)
            group_stats[key] = (float(len(peaks)),
                                100.0 * float(arr.max() - arr.min()),
                                float(arr.mean()))
        match_counts: List[float] = []
        ranges: List[float] = []
        errors: List[float] = []
        for key, peak in zip(_column_keys(*future_columns, grouping),
                             future_peaks):
            stats = group_stats.get(key)
            if stats is None:
                match_counts.append(0.0)
                ranges.append(100.0)
                errors.append(100.0)
            else:
                count, peak_range, mean = stats
                match_counts.append(count)
                ranges.append(peak_range)
                errors.append(100.0 * abs(float(peak) - mean))
        results[grouping] = {
            "matching_vms": match_counts,
            "peak_range_pct": ranges,
            "prediction_error_pct": errors,
        }
    return results


def group_predictability(trace: Trace, resource: Resource = Resource.MEMORY,
                         split_slot: int | None = None,
                         min_lifetime_days: float = 0.25
                         ) -> Dict[str, Dict[str, List[float]]]:
    """Figure 12: per-VM history size, utilization range, and prediction error.

    Returns, per grouping, parallel lists with one entry per second-week VM:
    the number of matching prior VMs, the range (max - min, in percent) of
    their peak utilization, and the absolute difference (in percent) between
    the VM's actual peak and the group's mean peak.
    """
    split = split_slot if split_slot is not None else 7 * SLOTS_PER_DAY
    return _columnar_detail(*columnar.predictability_features(
        trace, resource, split, min_lifetime_days))


def reference_group_predictability(trace: Trace,
                                   resource: Resource = Resource.MEMORY,
                                   split_slot: int | None = None,
                                   min_lifetime_days: float = 0.25
                                   ) -> Dict[str, Dict[str, List[float]]]:
    """Per-VM reference of :func:`group_predictability`."""
    split = split_slot if split_slot is not None else 7 * SLOTS_PER_DAY
    history, future = trace.split_at(split)
    history_vms = [vm for vm in history.vms
                   if vm.lifetime_days >= min_lifetime_days and vm.has_utilization()]
    future_vms = [vm for vm in future.vms
                  if vm.lifetime_days >= min_lifetime_days and vm.has_utilization()]

    results: Dict[str, Dict[str, List[float]]] = {}
    for grouping in GROUPINGS:
        groups: Dict[Tuple[str, ...], List[float]] = {}
        for vm in history_vms:
            groups.setdefault(_group_key(vm, grouping), []).append(
                vm.max_utilization(resource))

        match_counts: List[float] = []
        ranges: List[float] = []
        errors: List[float] = []
        for vm in future_vms:
            peaks = groups.get(_group_key(vm, grouping), [])
            match_counts.append(float(len(peaks)))
            if peaks:
                arr = np.asarray(peaks)
                ranges.append(100.0 * float(arr.max() - arr.min()))
                errors.append(100.0 * abs(vm.max_utilization(resource) - float(arr.mean())))
            else:
                ranges.append(100.0)
                errors.append(100.0)
        results[grouping] = {
            "matching_vms": match_counts,
            "peak_range_pct": ranges,
            "prediction_error_pct": errors,
        }
    return results


def predictability_summary(trace: Trace, resource: Resource = Resource.MEMORY,
                           tolerance_pct: float = 10.0,
                           **kwargs) -> Dict[str, Dict[str, float]]:
    """Headline numbers from Figure 12: median match count, median range, and
    the fraction of VMs predicted within ``tolerance_pct`` of their peak."""
    detail = group_predictability(trace, resource, **kwargs)
    summary: Dict[str, Dict[str, float]] = {}
    for grouping, rows in detail.items():
        matches = np.asarray(rows["matching_vms"])
        ranges = np.asarray(rows["peak_range_pct"])
        errors = np.asarray(rows["prediction_error_pct"])
        matched = matches > 0
        summary[grouping] = {
            "median_matching_vms": float(np.median(matches)) if matches.size else 0.0,
            "median_peak_range_pct": float(np.median(ranges[matched]))
            if matched.any() else 100.0,
            "fraction_within_tolerance": float(np.mean(errors[matched] <= tolerance_pct))
            if matched.any() else 0.0,
            "fraction_with_history": float(np.mean(matched)) if matches.size else 0.0,
        }
    return summary
