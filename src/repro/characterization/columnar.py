"""Columnar Section-2 characterization: segment reductions over the TraceStore.

Every figure statistic in this package was seeded as a per-VM loop over
``UtilizationSeries`` views -- the last object-at-a-time subsystem after the
scheduler ledger (PR 1), the replay meter (PR 2), and the trace filters
(PR 4) went dense.  This module is the dense formulation: each statistic is
re-expressed as segment reductions over the store's flat telemetry buffer
(per-VM maxima/percentiles/means via the kernels in
:mod:`repro.trace.store`), windowed maxima as one ``maximum.reduceat`` over
vectorized window boundaries, and stranding as one running sum down a
cluster's (VM, resource, sampled slot) contributions.  Results that several
statistics read (window maxima, Figure 6's per-VM means and ranges) are
computed once per store and cached read-only beside it.

Each public statistic in the figure modules calls its function here
unconditionally; the seed per-VM loop stays beside it as
``reference_<statistic>``, the executable specification and differential
oracle (the ``ReferenceLoopScheduler`` / ``ReferenceViolationMeter``
pattern).

Exactness contract
------------------
Every result is *bitwise* identical to the reference
(``tests/test_characterization_columnar.py`` pins this on dense, mmap,
edge-case and empty traces).  The kernels earn that the same way the
replay meter did: order-independent reductions (max/min) vectorize
freely; order-dependent ones either preserve the reference's accumulation
order exactly or reproduce numpy's own per-slice algorithm on identical
inputs (length-bucketed ``mean(axis=1)``, the replicated ``np.percentile``
linear interpolation).  Stranding keeps the order: a ``cumsum`` down the
row axis adds each sampled slot's contributions one VM at a time in row
order, starting from ``+0.0`` -- the seed's ``used[r] += ...`` loop.  A
slot where the seed adds nothing gets ``+0.0``, which leaves a running sum
that starts at ``+0.0`` bitwise unchanged.
"""

# repro: hot-path  -- REP003: statistics reduce over the store's flat
# buffers in place; materializing copies here defeats the columnar layout.

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.trace.store import TraceStore, rowwise_mean, segment_reduce
from repro.trace.timeseries import SLOTS_PER_DAY, TimeWindowConfig
from repro.trace.trace import Trace
from repro.trace.vm import VMConfig


# --------------------------------------------------------------------------- #
# Windowed maxima: the shared kernel behind Figures 7-11
# --------------------------------------------------------------------------- #
#: store -> {key: cached read-only arrays}: the window entries of
#: :func:`window_entries` under ``(resource value, window_hours)`` and
#: Figure 6's per-VM statistics under ``"utilization_scatter"``.  Keyed
#: weakly so a discarded store (and its telemetry) is not pinned by its
#: cached statistics; keyed per *object* because two stores over the same
#: buffers may select different rows.
_STORE_CACHE: "WeakKeyDictionary[TraceStore, Dict[object, Tuple[np.ndarray, ...]]]" = WeakKeyDictionary()


def _cached(store: TraceStore, key: object,
            compute: Callable[[], Tuple[np.ndarray, ...]]
            ) -> Tuple[np.ndarray, ...]:
    """``compute()`` once per ``(store, key)``, its arrays made read-only."""
    entries = _STORE_CACHE.setdefault(store, {})
    cached = entries.get(key)
    if cached is None:
        cached = compute()
        for array in cached:
            array.setflags(write=False)
        entries[key] = cached
    return cached


def window_entries(store: TraceStore, resource: Resource,
                   config: TimeWindowConfig
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(VM, day, window) maxima for every window overlapping a lifetime.

    Returns ``(row, day, window_of_day, window_max)`` arrays, one entry per
    window with at least one sample, ordered row-major (VM, then day, then
    window-of-day) -- the exact traversal order of
    ``UtilizationSeries._window_groups``.  All windows for all VMs are
    reduced in a single ``maximum.reduceat`` over the flat buffer instead of
    one Python generator step per (VM, window).

    Results are cached per ``(store, resource, window length)``: several
    Section-2 statistics sweep the same window configurations over the same
    long-running selection (which :meth:`Trace.long_running` memoizes so
    they share one store object), and the entries only depend on the
    store's rows and buffer.  Cached arrays are marked read-only; callers
    must treat them as immutable.
    """
    return _cached(store, (resource.value, config.window_hours),
                   lambda: _compute_window_entries(store, resource, config))


def _compute_window_entries(store: TraceStore, resource: Resource,
                            config: TimeWindowConfig
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    spw = config.slots_per_window
    n = len(store)
    series_start = store.series_start
    length = store.row_length
    offset = store.row_offset
    series_end = series_start + length
    first_window = (series_start // spw) * spw
    windows_per_row = (series_end - first_window + spw - 1) // spw
    total = int(windows_per_row.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.empty(0, dtype=np.float64)
    row = np.repeat(np.arange(n, dtype=np.int64), windows_per_row)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(windows_per_row, out=bounds[1:])
    k = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1], windows_per_row)
    window_start = first_window[row] + k * spw
    lo = offset[row] + np.maximum(window_start, series_start[row]) - series_start[row]
    hi = offset[row] + np.minimum(window_start + spw, series_end[row]) - series_start[row]
    window_max = segment_reduce(np.maximum, store.util[resource], lo, hi - lo)
    day = window_start // SLOTS_PER_DAY
    window_of_day = (window_start % SLOTS_PER_DAY) // spw
    return row, day, window_of_day, window_max


def _vmday_groups(row: np.ndarray, day: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Group boundaries of consecutive (VM, day) runs in window entries."""
    if row.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    changed = np.concatenate(([True], (row[1:] != row[:-1]) | (day[1:] != day[:-1])))
    starts = np.flatnonzero(changed).astype(np.int64)
    lengths = np.diff(np.concatenate((starts, [row.size]))).astype(np.int64)
    return starts, lengths


# --------------------------------------------------------------------------- #
# Figures 2-3: allocated resources (metadata columns only)
# --------------------------------------------------------------------------- #
def _resource_hour_columns(store: TraceStore) -> Tuple[np.ndarray, np.ndarray,
                                                       np.ndarray]:
    """``(lifetime_hours, cpu_hours, memory_hours)``, hours computed once."""
    hours = store.lifetime_hours
    alloc = store.alloc
    return (hours, alloc[:, ALL_RESOURCES.index(Resource.CPU)] * hours,
            alloc[:, ALL_RESOURCES.index(Resource.MEMORY)] * hours)


def duration_columns(trace: Trace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(durations_hours, cpu_hours, memory_hours)`` from the store columns."""
    return _resource_hour_columns(trace.store)


def size_columns(trace: Trace) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """``(cores, memory_gb, cpu_hours, memory_hours)`` from the store columns."""
    store = trace.store
    _hours, cpu_hours, memory_hours = _resource_hour_columns(store)
    return store.cores, store.memory_gb, cpu_hours, memory_hours


def median_vm_shape(trace: Trace) -> Dict[str, float]:
    store = trace.store
    n = len(store)
    if n == 0:
        return {"median_cores": 0.0, "median_memory_gb": 0.0, "n_vms": 0.0}
    mid = n // 2
    return {
        "median_cores": float(np.sort(store.cores)[mid]),
        "median_memory_gb": float(np.sort(store.memory_gb)[mid]),
        "n_vms": float(n),
    }


# --------------------------------------------------------------------------- #
# Figure 6: per-VM means and percentile ranges
# --------------------------------------------------------------------------- #
#: Figure 6's per-VM columns, in the order :func:`_scatter_statistics`
#: returns them.
_SCATTER_COLUMNS = ("cpu_mean", "memory_mean", "cpu_range", "memory_range",
                    "network_mean", "ssd_mean")


def _scatter_statistics(store: TraceStore) -> Tuple[np.ndarray, ...]:
    """Per-VM means and P95-P5 ranges, in :data:`_SCATTER_COLUMNS` order.

    Computed once per store and cached read-only, so Figure 6's summary
    reuses the scatter's segment means and percentile passes.
    """
    def compute() -> Tuple[np.ndarray, ...]:
        ranges = []
        for resource in (Resource.CPU, Resource.MEMORY):
            pcts = store.segment_percentiles(resource, (95.0, 5.0))
            ranges.append(pcts[95.0] - pcts[5.0])
        return (store.segment_mean(Resource.CPU),
                store.segment_mean(Resource.MEMORY), ranges[0], ranges[1],
                store.segment_mean(Resource.NETWORK),
                store.segment_mean(Resource.SSD))
    return _cached(store, "utilization_scatter", compute)


def utilization_scatter(trace: Trace, min_days: float
                        ) -> Dict[str, List[float]]:
    store = trace.long_running(min_days).store
    scatter: Dict[str, List[float]] = {"vm_id": list(store.vm_ids)}
    for name, column in zip(_SCATTER_COLUMNS, _scatter_statistics(store)):
        scatter[name] = [float(x) for x in column]
    return scatter


# --------------------------------------------------------------------------- #
# Figure 8: peaks and valleys per window-of-day
# --------------------------------------------------------------------------- #
def peaks_and_valleys(trace: Trace, resource: Resource, window_hours: int,
                      min_days: float, threshold: float
                      ) -> Dict[str, np.ndarray]:
    store = trace.long_running(min_days).store
    config = TimeWindowConfig(window_hours)
    row, day, window_of_day, window_max = window_entries(store, resource, config)
    peak_counts = np.zeros((7, config.windows_per_day))
    valley_counts = np.zeros((7, config.windows_per_day))
    days_with_peak = np.zeros(7)
    days_total = np.zeros(7)
    none_counts = np.zeros(7)

    if row.size:
        bucketed = np.round(window_max / threshold) * threshold
        group_start, group_len = _vmday_groups(row, day)
        group_max = segment_reduce(np.maximum, bucketed, group_start, group_len)
        group_min = segment_reduce(np.minimum, bucketed, group_start, group_len)
        spread = group_max - group_min
        has_peak = ~(spread < threshold - 1e-12)
        weekday = day[group_start] % 7
        np.add.at(days_total, weekday, 1.0)
        np.add.at(none_counts, weekday[~has_peak], 1.0)
        np.add.at(days_with_peak, weekday[has_peak], 1.0)

        entry_group = np.repeat(np.arange(group_start.size), group_len)
        entry_weekday = weekday[entry_group]
        is_peak = has_peak[entry_group] & np.isclose(bucketed, group_max[entry_group])
        is_valley = has_peak[entry_group] & np.isclose(bucketed, group_min[entry_group])
        np.add.at(peak_counts, (entry_weekday[is_peak], window_of_day[is_peak]), 1.0)
        np.add.at(valley_counts, (entry_weekday[is_valley], window_of_day[is_valley]), 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        peak_share = np.where(days_with_peak[:, None] > 0,
                              peak_counts / np.maximum(days_with_peak[:, None], 1), 0.0)
        valley_share = np.where(days_with_peak[:, None] > 0,
                                valley_counts / np.maximum(days_with_peak[:, None], 1), 0.0)
        none_share = np.where(days_total > 0, none_counts / np.maximum(days_total, 1), 0.0)
    return {"peaks": peak_share, "valleys": valley_share, "none": none_share,
            "windows_per_day": np.array([config.windows_per_day])}


# --------------------------------------------------------------------------- #
# Figure 9: day-over-day peak consistency
# --------------------------------------------------------------------------- #
def peak_consistency_cdf(trace: Trace, resource: Resource,
                         window_hours_sweep: Sequence[int], min_days: float,
                         grid: Sequence[float]
                         ) -> Dict[int, Dict[str, List[float]]]:
    store = trace.long_running(min_days).store
    results: Dict[int, Dict[str, List[float]]] = {}
    for window_hours in window_hours_sweep:
        config = TimeWindowConfig(window_hours)
        row, day, window_of_day, window_max = window_entries(store, resource, config)
        if row.size:
            # Day-over-day pairs: sort by (VM, window-of-day, day); for a
            # contiguous lifetime the days carrying a given window-of-day are
            # consecutive, so adjacent sorted entries one day apart are
            # exactly the pairs `np.diff` pairs up in the reference.
            order = np.lexsort((day, window_of_day, row))
            vm_sorted = row[order]
            window_sorted = window_of_day[order]
            day_sorted = day[order]
            max_sorted = window_max[order]
            paired = ((vm_sorted[1:] == vm_sorted[:-1])
                      & (window_sorted[1:] == window_sorted[:-1])
                      & (day_sorted[1:] == day_sorted[:-1] + 1))
            diffs = np.abs(max_sorted[1:] - max_sorted[:-1])[paired]
        else:
            diffs = np.empty(0)
        if diffs.size:
            cdf = [float(np.mean(diffs <= g + 1e-12)) for g in grid]
        else:
            cdf = [0.0 for _ in grid]
        results[window_hours] = {"diff_threshold": [float(g) for g in grid],
                                 "cdf": cdf}
    return results


# --------------------------------------------------------------------------- #
# Figures 10-11: time-window packing savings
# --------------------------------------------------------------------------- #
def _select_cluster(store: TraceStore, cluster_id: Optional[str]) -> TraceStore:
    if cluster_id is None:
        return store
    return store.select(store.in_cluster_indices(cluster_id))


def _window_savings_per_vm(store: TraceStore, resource: Resource,
                           window_hours: Optional[int],
                           lifetime_max: np.ndarray) -> np.ndarray:
    """Per-VM mean savings fraction (the body of ``vm_window_savings``)."""
    if window_hours is None:
        return rowwise_mean(store.util[resource], store.row_offset,
                            store.row_length, minuend=lifetime_max)
    config = TimeWindowConfig(window_hours)
    row, _day, _window_of_day, window_max = window_entries(store, resource, config)
    bounds = np.zeros(len(store) + 1, dtype=np.int64)
    counts = np.bincount(row, minlength=len(store)).astype(np.int64)
    np.cumsum(counts, out=bounds[1:])
    return rowwise_mean(window_max, bounds[:-1], counts, minuend=lifetime_max)


def cluster_savings(trace: Trace, cluster_id: Optional[str],
                    window_hours_sweep: Sequence[Optional[int]],
                    include_ideal: bool, min_days: float
                    ) -> Dict[str, Dict[str, float]]:
    store = _select_cluster(trace.long_running(min_days).store, cluster_id)
    sweep: List[Optional[int]] = list(window_hours_sweep)
    if include_ideal:
        sweep.append(None)
    lifetime_max = {r: store.segment_max(r)
                    for r in (Resource.CPU, Resource.MEMORY)}
    results: Dict[str, Dict[str, float]] = {}
    for window_hours in sweep:
        label = "ideal" if window_hours is None else f"{24 // window_hours}x{window_hours}hr"
        if len(store) == 0:
            results[label] = {"cpu": 0.0, "memory": 0.0}
            continue
        cpu = _window_savings_per_vm(store, Resource.CPU, window_hours,
                                     lifetime_max[Resource.CPU])
        memory = _window_savings_per_vm(store, Resource.MEMORY, window_hours,
                                        lifetime_max[Resource.MEMORY])
        results[label] = {
            "cpu": 100.0 * float(np.mean(cpu)),
            "memory": 100.0 * float(np.mean(memory)),
        }
    return results


def weekly_savings_profile(trace: Trace, cluster_id: Optional[str],
                           window_hours_sweep: Sequence[int], min_days: float
                           ) -> Dict[str, Dict[str, List[float]]]:
    store = _select_cluster(trace.long_running(min_days).store, cluster_id)
    n_days = int(np.ceil(trace.n_days))
    lifetime_max = {r: store.segment_max(r)
                    for r in (Resource.CPU, Resource.MEMORY)}

    results: Dict[str, Dict[str, List[float]]] = {}
    for window_hours in window_hours_sweep:
        config = TimeWindowConfig(window_hours)
        label = f"{24 // window_hours}x{window_hours}hr"
        per_resource: Dict[str, List[float]] = {}
        for key, resource in (("cpu", Resource.CPU), ("memory", Resource.MEMORY)):
            row, day, _window_of_day, window_max = window_entries(store, resource, config)
            group_start, group_len = _vmday_groups(row, day)
            group_row = row[group_start] if group_start.size else group_start
            group_mean = rowwise_mean(window_max, group_start, group_len,
                                      minuend=lifetime_max[resource][group_row])
            # The reference maps per-day offsets through vm.start_slot; keep
            # that (rather than the series start) so truncated telemetry
            # lands on the same calendar day either way.
            if group_start.size:
                absolute_day = (store.start_slot[group_row] // SLOTS_PER_DAY
                                + (day[group_start]
                                   - store.series_start[group_row] // SLOTS_PER_DAY))
            else:
                absolute_day = group_start
            by_day: List[float] = []
            for target_day in range(n_days):
                selected = group_mean[absolute_day == target_day]
                by_day.append(100.0 * float(np.mean(selected))
                              if selected.size else 0.0)
            per_resource[key] = by_day
        results[label] = per_resource
    return results


# --------------------------------------------------------------------------- #
# Figures 4-5: stranding (one ordered running sum per cluster)
# --------------------------------------------------------------------------- #
#: Most values one stranding block holds: 1 MiB of float64, as
#: :data:`~repro.trace.timeseries.WINDOW_PERCENTILE_PASS_SAMPLES` bounds a
#: percentile pass.  A block holds the carried running sum plus at least
#: one VM.
STRANDING_BLOCK_VALUES = 1 << 17


def _cluster_usage(store: TraceStore, rows: np.ndarray, slots: np.ndarray,
                   oversubscribed: Sequence[int]) -> np.ndarray:
    """Summed demand of store *rows* at *slots*, ``(n_resources, n_samples)``.

    *oversubscribed* indexes :data:`ALL_RESOURCES`.  Each block's first row
    carries the running sum (``+0.0`` before the first block); row ``k + 1``
    is VM ``k``'s contribution at every sampled slot: its allocation where
    it is alive, ``value * alloc`` where an oversubscribed resource's
    telemetry covers the slot, and ``+0.0`` everywhere else.  One
    ``cumsum`` down the rows then adds the VMs one at a time in row order,
    as the seed does, and its last row is the sum the next block carries.
    """
    n_resources = len(ALL_RESOURCES)
    usage = np.zeros((n_resources, slots.size))
    per_block = max(1, STRANDING_BLOCK_VALUES // usage.size - 1)
    for begin in range(0, rows.size, per_block):
        block_rows = rows[begin:begin + per_block]
        alive = ((store.start_slot[block_rows, None] <= slots)
                 & (slots < store.end_slot[block_rows, None]))
        alloc = store.alloc[block_rows]
        block = np.zeros((block_rows.size + 1, n_resources, slots.size))
        block[0] = usage
        np.copyto(block[1:], alloc[:, :, None], where=alive[:, None, :])
        if oversubscribed:
            series_start = store.series_start[block_rows]
            series_end = series_start + store.row_length[block_rows]
            vm, sample = np.nonzero(alive & (series_start[:, None] <= slots)
                                    & (slots < series_end[:, None]))
            position = (store.row_offset[block_rows][vm] + slots[sample]
                        - series_start[vm])
            for r_index in oversubscribed:
                block[1:, r_index] = 0.0
                if vm.size:
                    values = store.util[ALL_RESOURCES[r_index]][position]
                    block[vm + 1, r_index, sample] = values * alloc[vm, r_index]
        np.cumsum(block, axis=0, out=block)
        usage = block[-1]
    return usage


def stranding_inputs(trace: Trace, oversub: Dict[Resource, bool],
                     fill_vm: VMConfig, sample_every_slots: int,
                     cluster_ids: Sequence[str]
                     ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Per-cluster ``(free, bottleneck_index)`` over the sampled slots.

    ``free`` has shape ``(len(ALL_RESOURCES), n_samples)`` and holds the
    post-fill free vector for every sampled slot; ``bottleneck_index``
    indexes :data:`ALL_RESOURCES`.  Each cluster's used vector is one
    ordered running sum over its VMs (:func:`_cluster_usage`), and the
    caller (``measure_stranding``) accumulates totals slot by slot in the
    reference's order, so every reported fraction is bitwise the seed
    loop's.  *fill_vm* must demand some resource (``measure_stranding``
    checks).
    """
    store = trace.store
    demand = np.array([fill_vm.allocation_vector()[r] for r in ALL_RESOURCES])
    safe_demand = np.where(demand > 0, demand, 1.0)
    slots = np.arange(0, trace.n_slots, max(1, sample_every_slots))
    oversubscribed = [index for index, resource in enumerate(ALL_RESOURCES)
                      if oversub[resource]]

    per_cluster: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for cluster_id in cluster_ids:
        capacity = trace.fleet.get(cluster_id).total_capacity()
        cap = np.array([capacity[r] for r in ALL_RESOURCES])
        used = _cluster_usage(store, store.in_cluster_indices(cluster_id),
                              slots, oversubscribed)
        free = np.maximum(0.0, cap[:, None] - used)
        fits = np.where(demand[:, None] > 0, free / safe_demand[:, None], np.inf)
        n_fit = np.floor(np.maximum(0.0, fits.min(axis=0)))
        free = free - n_fit[None, :] * demand[:, None]
        remaining = np.where(demand[:, None] > 0, free / safe_demand[:, None], np.inf)
        per_cluster[cluster_id] = (free, np.argmin(remaining, axis=0))
    return per_cluster


# --------------------------------------------------------------------------- #
# Figure 12: history-based predictability
# --------------------------------------------------------------------------- #
def predictability_features(trace: Trace, resource: Resource,
                            split_slot: int, min_lifetime_days: float
                            ) -> Tuple[TraceStore, np.ndarray, TraceStore,
                                       np.ndarray]:
    """Eligible (history, future) stores plus their per-VM peak columns.

    Eligibility mirrors the reference filter (lifetime >= minimum and a full
    utilization record -- which a store's rows all have or all lack); the
    per-VM peaks -- the only telemetry the grouping statistics read -- come
    from one segment-max per side instead of a ``series.maximum()`` call
    per VM.
    """
    complete = all(r in trace.store.util for r in ALL_RESOURCES)
    history, future = trace.split_at(split_slot)

    def eligible(side: Trace) -> TraceStore:
        side_store = side.store
        mask = (side_store.lifetime_slots / SLOTS_PER_DAY
                >= min_lifetime_days) & complete
        return side_store.select(np.nonzero(mask)[0])

    history_store = eligible(history)
    future_store = eligible(future)
    return (history_store, history_store.segment_max(resource),
            future_store, future_store.segment_max(resource))
