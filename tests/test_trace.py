"""Tests for the trace substrate: generation, records, and statistics."""

import numpy as np
import pytest

from repro.core.resources import ALL_RESOURCES, Resource
from repro.trace import (
    HARDWARE_GENERATIONS,
    TYPICAL_VM_CONFIG,
    VM_CATALOG,
    TraceGenerator,
    TraceGeneratorConfig,
    default_clusters,
    generate_trace,
)
from repro.trace.patterns import (
    ARCHETYPES,
    archetype_defaults,
    generate_resource_patterns,
    generate_series,
    jitter_parameters,
    make_subscription_profile,
)
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.trace import Trace
from repro.trace.vm import VMRecord


class TestHardware:
    def test_ten_default_clusters(self):
        clusters = default_clusters()
        assert len(clusters) == 10
        assert [c.cluster_id for c in clusters] == [f"C{i}" for i in range(1, 11)]

    def test_cluster_hardware_heterogeneity(self):
        clusters = {c.cluster_id: c for c in default_clusters()}
        # C1 is memory-rich (CPU bottleneck), C4 is core-rich (memory bottleneck).
        def gb_per_core(cluster):
            capacity = cluster.total_capacity()
            return capacity[Resource.MEMORY] / capacity[Resource.CPU]

        assert gb_per_core(clusters["C1"]) > gb_per_core(clusters["C4"])

    def test_generation_capacity_vectors(self):
        for config in HARDWARE_GENERATIONS.values():
            capacity = config.capacity_vector()
            assert capacity[Resource.CPU] == config.cores
            assert capacity[Resource.MEMORY] == config.memory_gb


class TestVMCatalog:
    def test_typical_vm_is_4gb_per_core(self):
        assert TYPICAL_VM_CONFIG.gb_per_core == pytest.approx(4.0)

    def test_catalog_families(self):
        families = {cfg.family for cfg in VM_CATALOG.values()}
        assert families == {"general-purpose", "memory-optimized", "compute-optimized"}

    def test_memory_optimized_has_more_memory_per_core(self):
        assert VM_CATALOG["E8_v5"].gb_per_core > VM_CATALOG["D8_v5"].gb_per_core


class TestPatterns:
    def test_all_archetypes_have_defaults(self):
        for archetype in ARCHETYPES:
            params = archetype_defaults(archetype)
            assert 0 < params.base <= 1
            assert 0 < params.peak <= 1

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValueError):
            archetype_defaults("quantum")

    def test_generated_series_in_range(self):
        rng = np.random.default_rng(0)
        params = archetype_defaults("diurnal")
        values = generate_series(params, 2 * SLOTS_PER_DAY, 0, rng)
        assert values.shape == (2 * SLOTS_PER_DAY,)
        assert np.all(values >= 0) and np.all(values <= 1)

    def test_diurnal_pattern_peaks_in_daytime(self):
        rng = np.random.default_rng(1)
        params = archetype_defaults("diurnal")
        values = generate_series(params, SLOTS_PER_DAY, 0, rng)
        day_window = values[12 * 12:16 * 12]     # 12:00-16:00
        night_window = values[0:4 * 12]          # 00:00-04:00
        assert day_window.mean() > night_window.mean()

    def test_memory_pattern_less_variable_than_cpu(self):
        rng = np.random.default_rng(2)
        cpu = archetype_defaults("diurnal")
        per_resource = generate_resource_patterns(cpu, rng)
        cpu_swing = per_resource[Resource.CPU].peak - per_resource[Resource.CPU].base
        mem_swing = per_resource[Resource.MEMORY].peak - per_resource[Resource.MEMORY].base
        assert mem_swing <= cpu_swing + 1e-9

    def test_jitter_stays_in_valid_ranges(self):
        rng = np.random.default_rng(3)
        params = archetype_defaults("bursty")
        for _ in range(20):
            jittered = jitter_parameters(params, rng)
            assert 0 < jittered.base <= 1
            assert 0 < jittered.peak <= 1
            assert 0 <= jittered.noise <= 0.3

    def test_subscription_profile_round_trip(self):
        rng = np.random.default_rng(4)
        profile = make_subscription_profile("nocturnal", rng)
        assert profile.archetype == "nocturnal"
        assert 0.2 <= profile.vm_jitter <= 0.5


class TestTraceGeneration:
    def test_trace_validates(self, small_trace):
        """Every generated VM passes the row encoder's gate again."""
        again = Trace(vms=list(small_trace.vms), fleet=small_trace.fleet,
                      n_slots=small_trace.n_slots,
                      subscriptions=small_trace.subscriptions)
        assert len(again) == len(small_trace) == 250

    def test_long_running_vms_dominate_resource_hours(self, small_trace):
        summary = small_trace.summary()
        assert 0.15 <= summary["fraction_long_running"] <= 0.45
        assert summary["fraction_core_hours_long_running"] > 0.85

    def test_every_vm_has_all_resource_series(self, small_trace):
        for vm in small_trace:
            assert vm.has_utilization()
            for resource in ALL_RESOURCES:
                assert len(vm.series(resource)) == vm.lifetime_slots

    def test_reproducible_with_same_seed(self):
        config = TraceGeneratorConfig(n_vms=30, n_days=3, seed=42, n_subscriptions=10)
        a = TraceGenerator(config).generate()
        b = TraceGenerator(config).generate()
        assert [vm.vm_id for vm in a] == [vm.vm_id for vm in b]
        assert [vm.config.name for vm in a] == [vm.config.name for vm in b]
        np.testing.assert_allclose(a.vms[0].series(Resource.CPU).values,
                                   b.vms[0].series(Resource.CPU).values)

    def test_different_seed_differs(self):
        a = generate_trace(n_vms=30, n_days=3, seed=1, n_subscriptions=10)
        b = generate_trace(n_vms=30, n_days=3, seed=2, n_subscriptions=10)
        assert [vm.config.name for vm in a] != [vm.config.name for vm in b]

    def test_subscriptions_are_sticky_to_clusters(self, small_trace):
        clusters_by_sub = {}
        for vm in small_trace:
            clusters_by_sub.setdefault(vm.subscription_id, set()).add(
                vm.cluster_id)
        for clusters in clusters_by_sub.values():
            assert len(clusters) <= 3

    def test_cpu_utilization_mostly_below_50(self, small_trace):
        means = [vm.mean_utilization(Resource.CPU) for vm in small_trace.long_running()]
        assert np.mean(np.array(means) < 0.5) > 0.7

    def test_memory_range_narrower_than_cpu(self, small_trace):
        lr = small_trace.long_running().vms
        cpu = np.median([vm.series(Resource.CPU).utilization_range() for vm in lr])
        mem = np.median([vm.series(Resource.MEMORY).utilization_range() for vm in lr])
        assert mem < cpu


class TestTraceContainer:
    def test_filtering_by_cluster(self, small_trace):
        cluster = small_trace.cluster_ids()[0]
        sub = small_trace.in_cluster(cluster)
        assert all(vm.cluster_id == cluster for vm in sub)

    def test_split_at_partitions_vms(self, small_trace):
        split = 7 * SLOTS_PER_DAY
        before, after = small_trace.split_at(split)
        assert len(before) + len(after) == len(small_trace)
        assert all(vm.start_slot < split for vm in before)
        assert all(vm.start_slot >= split for vm in after)

    def test_alive_at(self, small_trace):
        vm = small_trace.vms[0]
        mid = (vm.start_slot + vm.end_slot) // 2
        assert vm in small_trace.alive_at(mid)

    def test_vm_by_id_missing_raises(self, tiny_trace):
        with pytest.raises(KeyError):
            tiny_trace.vm_by_id("vm-does-not-exist")

    def test_resource_hours_positive(self, tiny_trace):
        assert tiny_trace.total_resource_hours(Resource.MEMORY) > 0


class TestVMRecord:
    def test_invalid_lifetime_rejected(self):
        with pytest.raises(ValueError):
            VMRecord(vm_id="x", subscription_id="s", config=TYPICAL_VM_CONFIG,
                     cluster_id="C1", start_slot=10, end_slot=10)

    def test_demand_outside_lifetime_is_zero(self, long_running_vm):
        assert long_running_vm.demand_at(Resource.CPU, long_running_vm.end_slot + 5) == 0.0

    def test_demand_vector_scales_with_allocation(self, long_running_vm):
        slot = long_running_vm.start_slot
        for resource in ALL_RESOURCES:
            demand = long_running_vm.demand_at(resource, slot)
            assert 0 <= demand <= long_running_vm.allocated(resource) + 1e-9

    def test_creation_weekday_in_range(self, small_trace):
        for vm in small_trace.vms[:50]:
            assert 0 <= vm.creation_weekday <= 6
