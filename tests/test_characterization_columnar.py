"""Differential suite: columnar characterization vs the per-VM reference.

Every statistic rewired onto the segment-reduce kernels is pinned against
the seed per-VM path on two store backends, and results must be *bitwise*
identical on both (the columnar exactness contract):

* **dense** -- ``TraceStore.from_trace``;
* **mmap** -- the same store round-tripped through ``save``/``open(mmap=True)``
  (read-only memory-mapped buffers).

The reference side is ``trace.without_store()``: the identical zero-copy VM
views minus the columnar dispatch, i.e. the seed loops reading the same
buffers.  Edge cases -- an empty trace, single-sample VMs, and VMs shorter
than one time window -- get a handmade trace of their own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import (
    cluster_savings,
    fraction_consistent,
    group_predictability,
    measure_stranding,
    median_vm_shape,
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
from repro.characterization import columnar
from repro.core.resources import ALL_RESOURCES, Resource
from repro.simulator.benchmarking import assert_results_identical
from repro.trace.hardware import ClusterConfig, Fleet
from repro.trace.store import (
    TraceStore,
    rowwise_mean,
    segment_percentiles,
    segment_reduce,
)
from repro.trace.timeseries import (
    SLOTS_PER_DAY,
    TimeWindowConfig,
    UtilizationSeries,
)
from repro.trace.trace import Trace
from repro.trace.vm import VM_CATALOG, VMRecord

@pytest.fixture(scope="module", params=["dense", "mmap"])
def backend_trace(request, small_trace, tmp_path_factory):
    """The store-backed trace of one backend."""
    if request.param == "dense":
        return TraceStore.from_trace(small_trace).as_trace()
    path = tmp_path_factory.mktemp("columnar-store") / "trace"
    TraceStore.from_trace(small_trace).save(path)
    return TraceStore.open(path, mmap=True).as_trace()


def _check(statistic, trace, *args, **kwargs):
    columnar_result = statistic(trace, *args, **kwargs)
    reference_result = statistic(trace.without_store(), *args, **kwargs)
    assert_results_identical(reference_result, columnar_result)
    return columnar_result


class TestDifferentialAgainstReference:
    def test_dispatch_takes_columnar_path(self, backend_trace):
        """Guard against a silent fallback: every maybe_* must engage."""
        trace = backend_trace
        assert columnar.duration_columns(trace) is not None
        assert columnar.size_columns(trace) is not None
        assert columnar.maybe_median_vm_shape(trace) is not None
        assert columnar.maybe_utilization_scatter(trace, 1.0) is not None
        assert columnar.maybe_peaks_and_valleys(
            trace, Resource.CPU, 4, 1.0, 0.05) is not None
        assert columnar.maybe_peak_consistency_cdf(
            trace, Resource.CPU, [4], 2.0, [0.1]) is not None
        assert columnar.maybe_cluster_savings(
            trace, None, [4], True, 1.0) is not None
        assert columnar.maybe_weekly_savings_profile(
            trace, None, [4], 1.0) is not None
        assert columnar.maybe_stranding_inputs(
            trace, {r: False for r in ALL_RESOURCES},
            VM_CATALOG["D4_v5"], SLOTS_PER_DAY, trace.cluster_ids()) is not None
        assert columnar.maybe_predictability_features(
            trace, Resource.MEMORY, 7 * SLOTS_PER_DAY, 0.25) is not None

    def test_allocated(self, backend_trace):
        trace = backend_trace
        _check(resource_hours_by_duration, trace)
        _check(resource_hours_by_size, trace)
        _check(median_vm_shape, trace)

    def test_utilization(self, backend_trace):
        trace = backend_trace
        _check(utilization_scatter, trace)
        _check(utilization_summary, trace)

    @pytest.mark.parametrize("window_hours", [1, 4, 24])
    def test_peaks_and_valleys(self, backend_trace, window_hours):
        trace = backend_trace
        _check(peaks_and_valleys_by_window, trace, Resource.CPU,
               window_hours=window_hours)

    def test_peak_consistency(self, backend_trace):
        trace = backend_trace
        _check(peak_consistency_cdf, trace, Resource.CPU,
               window_hours_sweep=[1, 4, 24])
        _check(fraction_consistent, trace, Resource.MEMORY)

    def test_savings(self, backend_trace):
        trace = backend_trace
        _check(cluster_savings, trace, window_hours_sweep=[24, 4, 1])
        cluster = trace.cluster_ids()[0]
        _check(cluster_savings, trace, cluster_id=cluster,
               window_hours_sweep=[4])
        _check(weekly_savings_profile, trace, window_hours_sweep=[4, 12])
        _check(savings_distribution, trace, window_hours_sweep=[4])

    @pytest.mark.parametrize("scenario", ["no-oversub", "cpu-only", "cpu+memory"])
    def test_stranding(self, backend_trace, scenario):
        trace = backend_trace
        _check(measure_stranding, trace, scenario,
               sample_every_slots=SLOTS_PER_DAY)

    def test_stranding_cluster_subset(self, backend_trace):
        trace = backend_trace
        _check(stranding_by_scenario, trace,
               sample_every_slots=SLOTS_PER_DAY,
               clusters=trace.cluster_ids()[:2])

    def test_predictability(self, backend_trace):
        trace = backend_trace
        _check(group_predictability, trace)
        _check(predictability_summary, trace, Resource.MEMORY)


# --------------------------------------------------------------------------- #
# Edge cases: empty trace, single-sample VMs, sub-window VMs
# --------------------------------------------------------------------------- #
_EDGE_FLEET = Fleet(clusters=[
    ClusterConfig("E1", "edge", (("gen4-intel", 1),)),
    ClusterConfig("E2", "edge", (("gen6-amd", 1),)),
])


def _edge_vm(vm_id, cluster_id, start_slot, end_slot, *, config="D2_v5",
             subscription="sub-a", seed=0):
    rng = np.random.default_rng(seed)
    length = end_slot - start_slot
    return VMRecord(
        vm_id=vm_id, subscription_id=subscription, config=VM_CATALOG[config],
        cluster_id=cluster_id, start_slot=start_slot, end_slot=end_slot,
        utilization={r: UtilizationSeries(rng.uniform(0.0, 1.0, length),
                                          start_slot)
                     for r in ALL_RESOURCES},
    )


@pytest.fixture(scope="module")
def edge_trace():
    """Single-sample VMs, VMs shorter than one window, mid-window starts."""
    slots_per_window = 4 * (SLOTS_PER_DAY // 24)  # one 4-hour window
    vms = [
        # One-sample lifetime: a single telemetry slot.
        _edge_vm("one-sample", "E1", 5, 6, seed=1),
        # Shorter than one window, fully inside it.
        _edge_vm("sub-window", "E1", 1, 4, seed=2),
        # Shorter than one window but straddling a window boundary.
        _edge_vm("straddle", "E2", slots_per_window - 2,
                 slots_per_window + 2, seed=3),
        # Starts mid-window, runs multiple days (exercises partial first and
        # last windows plus day-over-day pairs).
        _edge_vm("multi-day", "E1", slots_per_window // 2,
                 slots_per_window // 2 + 3 * SLOTS_PER_DAY, seed=4,
                 subscription="sub-b"),
        # Second-week arrival for the predictability split.
        _edge_vm("second-week", "E2", 8 * SLOTS_PER_DAY,
                 9 * SLOTS_PER_DAY + 7, seed=5, subscription="sub-b"),
    ]
    trace = Trace(vms=vms, fleet=_EDGE_FLEET, n_slots=14 * SLOTS_PER_DAY)
    return TraceStore.from_trace(trace).as_trace()


@pytest.fixture(scope="module")
def empty_trace():
    trace = Trace(vms=[], fleet=_EDGE_FLEET, n_slots=SLOTS_PER_DAY)
    return TraceStore.from_trace(trace).as_trace()


class TestEdgeCases:
    @pytest.mark.parametrize("fixture", ["edge_trace", "empty_trace"])
    def test_full_suite(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        # min_days=0.0 keeps the single-sample and sub-window VMs inside
        # every statistic instead of being filtered by long_running().
        _check(resource_hours_by_duration, trace)
        _check(resource_hours_by_size, trace)
        _check(median_vm_shape, trace)
        _check(utilization_scatter, trace, min_days=0.0)
        _check(peaks_and_valleys_by_window, trace, Resource.CPU,
               window_hours=4, min_days=0.0)
        _check(peak_consistency_cdf, trace, Resource.CPU,
               window_hours_sweep=[4], min_days=0.0)
        _check(cluster_savings, trace, window_hours_sweep=[4, 24],
               min_days=0.0)
        _check(weekly_savings_profile, trace, window_hours_sweep=[4],
               min_days=0.0)
        _check(stranding_by_scenario, trace,
               sample_every_slots=SLOTS_PER_DAY // 4)
        _check(group_predictability, trace, Resource.MEMORY,
               min_lifetime_days=0.0)

    def test_empty_cluster_selection(self, edge_trace):
        # E2 exists in the fleet but cluster_savings can also target a
        # cluster with no long-running VMs at the default min_days.
        _check(cluster_savings, edge_trace, cluster_id="E2",
               window_hours_sweep=[4])


# --------------------------------------------------------------------------- #
# Kernel-level pins (the building blocks, against their numpy equivalents)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def random_segments():
    rng = np.random.default_rng(11)
    lengths = rng.integers(1, 200, 300)
    buffer = rng.uniform(0.0, 1.0, int(lengths.sum()))
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return buffer, starts.astype(np.int64), lengths.astype(np.int64)


class TestKernels:
    def test_segment_reduce(self, random_segments):
        buffer, starts, lengths = random_segments
        for ufunc in (np.maximum, np.minimum):
            got = segment_reduce(ufunc, buffer, starts, lengths)
            expected = np.array([ufunc.reduce(buffer[s:s + l])
                                 for s, l in zip(starts, lengths)])
            assert np.array_equal(got, expected)

    def test_segment_percentiles_partitioned(self, random_segments):
        buffer, starts, lengths = random_segments
        results = segment_percentiles(buffer, starts, lengths,
                                      (5.0, 95.0, 0.0, 100.0, 50.0))
        for pct, got in results.items():
            expected = np.array([np.percentile(buffer[s:s + l], pct)
                                 for s, l in zip(starts, lengths)])
            assert np.array_equal(got, expected)

    def test_rowwise_mean(self, random_segments):
        buffer, starts, lengths = random_segments
        got = rowwise_mean(buffer, starts, lengths)
        expected = np.array([np.mean(buffer[s:s + l])
                             for s, l in zip(starts, lengths)])
        assert np.array_equal(got, expected)

    def test_rowwise_mean_with_minuend(self, random_segments):
        buffer, starts, lengths = random_segments
        minuend = segment_reduce(np.maximum, buffer, starts, lengths)
        got = rowwise_mean(buffer, starts, lengths, minuend=minuend)
        expected = np.array([np.mean(float(m) - buffer[s:s + l])
                             for m, s, l in zip(minuend, starts, lengths)])
        assert np.array_equal(got, expected)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        buffer = np.empty(0)
        assert segment_reduce(np.maximum, buffer, empty, empty).size == 0
        assert segment_percentiles(buffer, empty, empty, (95.0,))[95.0].size == 0
        assert rowwise_mean(buffer, empty, empty).size == 0


# --------------------------------------------------------------------------- #
# vm_week_profile stays zero-copy on store rows
# --------------------------------------------------------------------------- #
class TestWeekProfileView:
    def test_store_backed_profile_is_a_readonly_view(self, backend_trace):
        trace = backend_trace
        vm = trace.long_running(2.0).vms[0]
        profile = vm_week_profile(vm)
        store_buffer = trace.store.util[Resource.CPU]
        assert np.shares_memory(profile["utilization"], store_buffer)
        assert not profile["utilization"].flags.writeable
        with pytest.raises(ValueError):
            profile["utilization"][0] = 0.5

    def test_object_backed_profile_is_readonly(self, small_trace):
        vm = small_trace.long_running(2.0).vms[0]
        profile = vm_week_profile(vm)
        assert np.shares_memory(profile["utilization"],
                                vm.series(Resource.CPU).values)
        assert not profile["utilization"].flags.writeable


class TestSegmentReduceBounds:
    """The reduceat final-bound contract: drop only on exact coverage."""

    def test_final_segment_ending_exactly_at_buffer_end(self):
        buffer = np.arange(10.0)
        starts = np.array([0, 4], dtype=np.int64)
        lengths = np.array([4, 6], dtype=np.int64)  # ends exactly at 10
        got = segment_reduce(np.maximum, buffer, starts, lengths)
        assert np.array_equal(got, np.array([3.0, 9.0]))

    def test_final_segment_ending_before_buffer_end(self):
        buffer = np.arange(10.0)
        starts = np.array([0, 4], dtype=np.int64)
        lengths = np.array([4, 3], dtype=np.int64)  # trailing slack of 3
        got = segment_reduce(np.maximum, buffer, starts, lengths)
        assert np.array_equal(got, np.array([3.0, 6.0]))

    def test_overshooting_segment_raises(self):
        buffer = np.arange(10.0)
        starts = np.array([0, 4], dtype=np.int64)
        lengths = np.array([4, 7], dtype=np.int64)  # end 11 > 10 samples
        with pytest.raises(ValueError, match="overruns the telemetry buffer"):
            segment_reduce(np.maximum, buffer, starts, lengths)

    def test_interior_overshoot_raises_too(self):
        buffer = np.arange(10.0)
        starts = np.array([0, 8], dtype=np.int64)
        lengths = np.array([11, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="overruns the telemetry buffer"):
            segment_reduce(np.minimum, buffer, starts, lengths)


class TestWindowEntryCache:
    def test_repeat_calls_return_the_cached_tuple(self, backend_trace):
        trace = backend_trace
        config = TimeWindowConfig(6)
        first = columnar.window_entries(trace.store, Resource.CPU, config)
        second = columnar.window_entries(trace.store, Resource.CPU, config)
        assert all(a is b for a, b in zip(first, second))

    def test_cached_arrays_are_readonly(self, backend_trace):
        trace = backend_trace
        entries = columnar.window_entries(trace.store, Resource.CPU,
                                          TimeWindowConfig(6))
        for array in entries:
            assert not array.flags.writeable

    def test_distinct_keys_get_distinct_entries(self, backend_trace):
        trace = backend_trace
        cpu = columnar.window_entries(trace.store, Resource.CPU,
                                      TimeWindowConfig(6))
        memory = columnar.window_entries(trace.store, Resource.MEMORY,
                                         TimeWindowConfig(6))
        longer = columnar.window_entries(trace.store, Resource.CPU,
                                         TimeWindowConfig(12))
        assert cpu[3] is not memory[3]
        assert cpu[0] is not longer[0]

    def test_long_running_memoization_shares_the_store(self, backend_trace):
        # Statistics all start from trace.long_running(min_days); the
        # memoized selection means they hit one store object, so the
        # window-entry cache actually connects across statistics.
        trace = backend_trace
        first = trace.long_running(3.0)
        second = trace.long_running(3.0)
        assert first is second
        assert first.store is second.store
        other = trace.long_running(5.0)
        assert other is not first
