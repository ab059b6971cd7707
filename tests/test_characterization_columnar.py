"""Differential suite: each columnar statistic vs its per-VM reference.

Every statistic computed by the segment-reduce kernels has a
``reference_<statistic>`` beside it: the seed per-VM loop, reading the same
telemetry through the trace's zero-copy row views.  Results must be
*bitwise* identical (the columnar exactness contract) on every kind of
trace the kernels see:

* **dense** -- the generator's trace, encoded in memory;
* **mmap** -- the same store round-tripped through ``save``/``open(mmap=True)``
  (read-only memory-mapped buffers);
* **edge** -- single-sample VMs and VMs shorter than one time window;
* **empty** -- no VMs at all, so a store without telemetry buffers;
* **truncated** -- VMs whose telemetry stops before their lifetime ends,
  beside a cluster without VMs, for stranding with its row blocks shrunk
  so that one cluster spans several blocks.

Figure 6's per-store statistics are checked for reuse (the summary after
the scatter computes nothing again) and for isolation (another selection
computes its own).

Composite statistics without a reference of their own (``fraction_consistent``,
``savings_distribution``, ``predictability_summary``) are checked by running
them once over the public statistic and once with the reference patched in.
"""

from __future__ import annotations

from dataclasses import replace

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
    reference_cluster_savings,
    reference_group_predictability,
    reference_measure_stranding,
    reference_median_vm_shape,
    reference_peak_consistency_cdf,
    reference_peaks_and_valleys_by_window,
    reference_resource_hours_by_duration,
    reference_resource_hours_by_size,
    reference_stranding_by_scenario,
    reference_utilization_scatter,
    reference_utilization_summary,
    reference_weekly_savings_profile,
    resource_hours_by_duration,
    resource_hours_by_size,
    savings_distribution,
    stranding_by_scenario,
    utilization_scatter,
    utilization_summary,
    vm_week_profile,
    weekly_savings_profile,
)
from repro.characterization import columnar, predictability, savings, temporal
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
from repro.trace.vm import VM_CATALOG, VMConfig, VMRecord


@pytest.fixture(scope="module", params=["dense", "mmap"])
def backend_trace(request, small_trace, tmp_path_factory):
    """The generator's trace, in RAM or memory-mapped from disk."""
    if request.param == "dense":
        return small_trace
    path = tmp_path_factory.mktemp("columnar-store") / "trace"
    small_trace.store.save(path)
    return TraceStore.open(path, mmap=True).as_trace()


def _check(statistic, reference, trace, *args, **kwargs):
    columnar_result = statistic(trace, *args, **kwargs)
    reference_result = reference(trace, *args, **kwargs)
    assert_results_identical(reference_result, columnar_result)
    return columnar_result


def _check_composite(monkeypatch, composite, module, statistic, trace,
                     *args, **kwargs):
    """*composite* over ``module.statistic`` equals it over the reference."""
    columnar_result = composite(trace, *args, **kwargs)
    monkeypatch.setattr(module, statistic,
                        getattr(module, f"reference_{statistic}"))
    assert_results_identical(composite(trace, *args, **kwargs),
                             columnar_result)


class TestDifferentialAgainstReference:
    def test_allocated(self, backend_trace):
        trace = backend_trace
        _check(resource_hours_by_duration, reference_resource_hours_by_duration,
               trace)
        _check(resource_hours_by_size, reference_resource_hours_by_size, trace)
        _check(median_vm_shape, reference_median_vm_shape, trace)

    def test_utilization(self, backend_trace):
        trace = backend_trace
        _check(utilization_scatter, reference_utilization_scatter, trace)
        _check(utilization_summary, reference_utilization_summary, trace)

    @pytest.mark.parametrize("window_hours", [1, 4, 24])
    def test_peaks_and_valleys(self, backend_trace, window_hours):
        trace = backend_trace
        _check(peaks_and_valleys_by_window,
               reference_peaks_and_valleys_by_window, trace, Resource.CPU,
               window_hours=window_hours)

    def test_peak_consistency(self, backend_trace, monkeypatch):
        trace = backend_trace
        _check(peak_consistency_cdf, reference_peak_consistency_cdf, trace,
               Resource.CPU, window_hours_sweep=[1, 4, 24])
        _check_composite(monkeypatch, fraction_consistent, temporal,
                         "peak_consistency_cdf", trace, Resource.MEMORY)

    def test_savings(self, backend_trace, monkeypatch):
        trace = backend_trace
        _check(cluster_savings, reference_cluster_savings, trace,
               window_hours_sweep=[24, 4, 1])
        cluster = trace.cluster_ids()[0]
        _check(cluster_savings, reference_cluster_savings, trace,
               cluster_id=cluster, window_hours_sweep=[4])
        _check(weekly_savings_profile, reference_weekly_savings_profile, trace,
               window_hours_sweep=[4, 12])
        _check_composite(monkeypatch, savings_distribution, savings,
                         "cluster_savings", trace, window_hours_sweep=[4])

    @pytest.mark.parametrize("scenario", ["no-oversub", "cpu-only", "cpu+memory"])
    def test_stranding(self, backend_trace, scenario):
        trace = backend_trace
        _check(measure_stranding, reference_measure_stranding, trace, scenario,
               sample_every_slots=SLOTS_PER_DAY)

    def test_stranding_cluster_subset(self, backend_trace):
        trace = backend_trace
        _check(stranding_by_scenario, reference_stranding_by_scenario, trace,
               sample_every_slots=SLOTS_PER_DAY,
               clusters=trace.cluster_ids()[:2])

    def test_predictability(self, backend_trace, monkeypatch):
        trace = backend_trace
        _check(group_predictability, reference_group_predictability, trace)
        _check_composite(monkeypatch, predictability_summary, predictability,
                         "group_predictability", trace, Resource.MEMORY)

    @pytest.mark.parametrize("measure", [measure_stranding,
                                         reference_measure_stranding])
    def test_fill_vm_without_demand_rejected(self, backend_trace, measure):
        """A fill VM demanding nothing would fit without bound: both paths
        reject it up front instead of overflowing ``int(inf)``."""
        idle = VMConfig("idle", cores=0, memory_gb=0, network_gbps=0.0,
                        ssd_gb=0)
        with pytest.raises(ValueError, match="fill VM 'idle'"):
            measure(backend_trace, fill_vm=idle)


# --------------------------------------------------------------------------- #
# Edge cases: empty trace, single-sample VMs, sub-window VMs
# --------------------------------------------------------------------------- #
_EDGE_FLEET = Fleet(clusters=[
    ClusterConfig("E1", "edge", (("gen4-intel", 1),)),
    ClusterConfig("E2", "edge", (("gen6-amd", 1),)),
])


def _edge_vm(vm_id, cluster_id, start_slot, end_slot, *, config="D2_v5",
             subscription="sub-a", seed=0, telemetry_slots=None):
    rng = np.random.default_rng(seed)
    length = end_slot - start_slot if telemetry_slots is None else telemetry_slots
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
    return Trace(vms=vms, fleet=_EDGE_FLEET, n_slots=14 * SLOTS_PER_DAY)


@pytest.fixture(scope="module")
def empty_trace():
    return Trace(vms=[], fleet=_EDGE_FLEET, n_slots=SLOTS_PER_DAY)


class TestEdgeCases:
    @pytest.mark.parametrize("fixture", ["edge_trace", "empty_trace"])
    def test_full_suite(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        # min_days=0.0 keeps the single-sample and sub-window VMs inside
        # every statistic instead of being filtered by long_running().
        _check(resource_hours_by_duration, reference_resource_hours_by_duration,
               trace)
        _check(resource_hours_by_size, reference_resource_hours_by_size, trace)
        _check(median_vm_shape, reference_median_vm_shape, trace)
        _check(utilization_scatter, reference_utilization_scatter, trace,
               min_days=0.0)
        _check(utilization_summary, reference_utilization_summary, trace,
               min_days=0.0)
        _check(peaks_and_valleys_by_window,
               reference_peaks_and_valleys_by_window, trace, Resource.CPU,
               window_hours=4, min_days=0.0)
        _check(peak_consistency_cdf, reference_peak_consistency_cdf, trace,
               Resource.CPU, window_hours_sweep=[4], min_days=0.0)
        _check(cluster_savings, reference_cluster_savings, trace,
               window_hours_sweep=[4, 24], min_days=0.0)
        _check(weekly_savings_profile, reference_weekly_savings_profile, trace,
               window_hours_sweep=[4], min_days=0.0)
        _check(measure_stranding, reference_measure_stranding, trace,
               "cpu+memory", sample_every_slots=SLOTS_PER_DAY // 4)
        _check(stranding_by_scenario, reference_stranding_by_scenario, trace,
               sample_every_slots=SLOTS_PER_DAY // 4)
        _check(group_predictability, reference_group_predictability, trace,
               Resource.MEMORY, min_lifetime_days=0.0)

    def test_partial_telemetry(self, edge_trace):
        """A store with CPU and memory telemetry only: no VM has the full
        record Figure 12 requires, on either path."""
        vms = [replace(vm, utilization={
            resource: series for resource, series in vm.utilization.items()
            if resource in (Resource.CPU, Resource.MEMORY)})
            for vm in edge_trace.vms]
        trace = Trace(vms=vms, fleet=_EDGE_FLEET, n_slots=edge_trace.n_slots)
        _check(group_predictability, reference_group_predictability, trace,
               Resource.MEMORY, min_lifetime_days=0.0)
        _check(measure_stranding, reference_measure_stranding, trace,
               "cpu+memory", sample_every_slots=SLOTS_PER_DAY // 4)
        _check(cluster_savings, reference_cluster_savings, trace,
               window_hours_sweep=[4], min_days=0.0)

    def test_empty_cluster_selection(self, edge_trace):
        # E2 exists in the fleet but cluster_savings can also target a
        # cluster with no long-running VMs at the default min_days.
        _check(cluster_savings, reference_cluster_savings, edge_trace,
               cluster_id="E2", window_hours_sweep=[4])


# --------------------------------------------------------------------------- #
# Stranding's blocked running sum
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def truncated_trace():
    """E1 VMs whose telemetry stops 1/8 to 7/8 into their lifetime (and one
    full record); E2 holds no VM."""
    vms = []
    for k in range(8):
        start = k * SLOTS_PER_DAY // 3
        lifetime = (2 + k % 3) * SLOTS_PER_DAY
        vms.append(_edge_vm(f"truncated-{k}", "E1", start, start + lifetime,
                            seed=20 + k, telemetry_slots=lifetime * (k + 1) // 8))
    return Trace(vms=vms, fleet=_EDGE_FLEET, n_slots=7 * SLOTS_PER_DAY)


class TestStrandingBlocks:
    """A cluster whose VMs span several blocks sums exactly as the seed."""

    @staticmethod
    def _blocks_of(monkeypatch, trace, sample_every_slots, vms_per_block):
        n_samples = len(range(0, trace.n_slots, sample_every_slots))
        monkeypatch.setattr(columnar, "STRANDING_BLOCK_VALUES",
                            (vms_per_block + 1) * len(ALL_RESOURCES) * n_samples)

    @pytest.mark.parametrize("vms_per_block", [1, 3])
    @pytest.mark.parametrize("scenario", ["no-oversub", "cpu-only", "cpu+memory"])
    def test_generated_trace(self, backend_trace, monkeypatch, scenario,
                             vms_per_block):
        trace = backend_trace
        self._blocks_of(monkeypatch, trace, SLOTS_PER_DAY, vms_per_block)
        assert all(trace.store.in_cluster_indices(cluster).size > vms_per_block
                   for cluster in trace.cluster_ids())
        _check(measure_stranding, reference_measure_stranding, trace, scenario,
               sample_every_slots=SLOTS_PER_DAY)

    @pytest.mark.parametrize("vms_per_block", [1, 3, 100])
    @pytest.mark.parametrize("scenario", ["no-oversub", "cpu+memory"])
    def test_truncated_telemetry_and_empty_cluster(self, truncated_trace,
                                                   monkeypatch, scenario,
                                                   vms_per_block):
        trace = truncated_trace
        store = trace.store
        assert (store.row_length < store.end_slot - store.start_slot).sum() == 7
        assert store.in_cluster_indices("E2").size == 0
        self._blocks_of(monkeypatch, trace, SLOTS_PER_DAY // 8, vms_per_block)
        result = _check(measure_stranding, reference_measure_stranding, trace,
                        scenario, sample_every_slots=SLOTS_PER_DAY // 8)
        # The empty cluster's servers are all free: memory (the fill VM's
        # tightest resource) is its bottleneck at every sampled slot.
        assert result.per_cluster_bottleneck["E2"][Resource.MEMORY] == 1.0


# --------------------------------------------------------------------------- #
# Figure 6's per-store statistics
# --------------------------------------------------------------------------- #
class TestScatterCache:
    def test_summary_reuses_the_scatter_statistics(self, backend_trace,
                                                   monkeypatch):
        trace = replace(backend_trace)  # fresh long_running selections
        calls = []
        percentiles = TraceStore.segment_percentiles

        def counted(store, resource, pcts):
            calls.append(resource)
            return percentiles(store, resource, pcts)

        monkeypatch.setattr(TraceStore, "segment_percentiles", counted)
        scatter = utilization_scatter(trace)
        summary = utilization_summary(trace)
        assert calls == [Resource.CPU, Resource.MEMORY]
        assert_results_identical(reference_utilization_scatter(trace), scatter)
        assert_results_identical(reference_utilization_summary(trace), summary)

    def test_cached_arrays_are_readonly(self, backend_trace):
        store = backend_trace.long_running(1.0).store
        statistics = columnar._scatter_statistics(store)
        assert columnar._scatter_statistics(store) is statistics
        for array in statistics:
            assert array.size == len(store)
            assert not array.flags.writeable

    def test_other_selections_get_their_own_statistics(self, backend_trace):
        trace = backend_trace
        store = trace.long_running(1.0).store
        default = columnar._scatter_statistics(store)
        longer = columnar._scatter_statistics(trace.long_running(4.0).store)
        assert longer[0] is not default[0]
        assert longer[0].size == len(trace.long_running(4.0).store) < len(store)
        _check(utilization_scatter, reference_utilization_scatter, trace,
               min_days=4.0)
        _check(utilization_summary, reference_utilization_summary, trace,
               min_days=4.0)
        # A selection over the same buffers is another store: per-VM
        # statistics of its own rows, not its parent's cached arrays.
        subset = columnar._scatter_statistics(
            store.select(np.arange(0, len(store), 2)))
        for mine, parents in zip(subset, default):
            assert mine is not parents
            assert mine.tobytes() == parents[::2].tobytes()


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

    @pytest.mark.parametrize("pct", [-1.0, 100.5, float("nan")])
    def test_percentile_out_of_range(self, random_segments, pct):
        # np.percentile's own error, on empty input too; the shared rank
        # helper would otherwise read rank -1 or past the segment's end.
        buffer, starts, lengths = random_segments
        with pytest.raises(ValueError, match="range") as expected:
            np.percentile(buffer[starts[0]:starts[0] + lengths[0]], pct)
        for segments in ((starts, lengths), (starts[:0], lengths[:0])):
            with pytest.raises(ValueError) as got:
                segment_percentiles(buffer, *segments, (50.0, pct))
            assert str(got.value) == str(expected.value)


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

    def test_object_backed_profile_is_readonly(self):
        vm = _edge_vm("standalone", "E1", 0, 3 * SLOTS_PER_DAY)
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
