"""Tests for the time-window demand formulation (Equations 1-4) and CoachVM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coachvm import CoachVM, MemorySplit
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.windows import (
    guaranteed_memory,
    multiplexed_oversubscribed_memory,
    plan_resource,
    plan_vm,
    scheduling_vector,
    server_memory_backing,
    unmultiplexed_oversubscribed_memory,
)
from repro.prediction.utilization_model import WindowUtilizationPrediction
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import VM_CATALOG, VMRecord
from repro.trace.timeseries import UtilizationSeries


def make_prediction(windows, percentile_by_resource, maximum_by_resource,
                    oversubscribable=True):
    return WindowUtilizationPrediction(
        windows=windows,
        percentile={Resource(r): np.asarray(v, dtype=float)
                    for r, v in percentile_by_resource.items()},
        maximum={Resource(r): np.asarray(v, dtype=float)
                 for r, v in maximum_by_resource.items()},
        oversubscribable=oversubscribable,
    )


def paper_figure16_prediction(windows):
    """The Figure 16 example: a 32 GB VM with three 8-hour windows."""
    # CVM1: PA-demand 16 GB (max percentile), VA demands {10, 0, 8} roughly.
    pct = {r: [0.5, 0.25, 0.5] for r in ("cpu", "memory", "network", "ssd")}
    mx = {r: [0.875, 0.25, 0.6875] for r in ("cpu", "memory", "network", "ssd")}
    return make_prediction(windows, pct, mx)


class TestPlanResource:
    def test_memory_pa_is_max_percentile_across_windows(self):
        windows = TimeWindowConfig(8)
        prediction = paper_figure16_prediction(windows)
        plan = plan_resource(Resource.MEMORY, 32.0, prediction)
        # Eq. 1: PA = max_t(P95_t) * 32 GB = 16 GB.
        assert plan.guaranteed == pytest.approx(16.0)
        # Eq. 2: VA demand = max(0, Pmax_t*32 - 16).
        np.testing.assert_allclose(plan.window_oversubscribed, [12.0, 0.0, 6.0])

    def test_no_oversubscription_plan_is_full(self):
        windows = TimeWindowConfig(8)
        prediction = paper_figure16_prediction(windows)
        plan = plan_resource(Resource.MEMORY, 32.0, prediction, oversubscribe=False)
        assert plan.guaranteed == 32.0
        assert np.all(plan.window_demand == 32.0)
        assert np.all(plan.window_oversubscribed == 0.0)

    def test_memory_guaranteed_rounded_to_granularity(self):
        windows = TimeWindowConfig(12)
        prediction = make_prediction(
            windows, {r: [0.33, 0.4] for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.5, 0.5] for r in ("cpu", "memory", "network", "ssd")})
        plan = plan_resource(Resource.MEMORY, 7.0, prediction)
        assert plan.guaranteed == pytest.approx(3.0)  # 0.4*7 = 2.8 -> 3 GB

    def test_guaranteed_never_exceeds_request(self):
        windows = TimeWindowConfig(24)
        prediction = make_prediction(
            windows, {r: [1.0] for r in ("cpu", "memory", "network", "ssd")},
            {r: [1.0] for r in ("cpu", "memory", "network", "ssd")})
        plan = plan_resource(Resource.MEMORY, 16.0, prediction)
        assert plan.guaranteed <= 16.0

    def test_fungible_resource_uses_window_demand(self):
        windows = TimeWindowConfig(8)
        prediction = make_prediction(
            windows, {r: [0.2, 0.6, 0.4] for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.25, 0.75, 0.5] for r in ("cpu", "memory", "network", "ssd")})
        plan = plan_resource(Resource.CPU, 8.0, prediction)
        np.testing.assert_allclose(plan.window_demand, [2.0, 6.0, 4.0])
        assert plan.guaranteed == pytest.approx(1.6)  # smallest window percentile


class TestServerAggregation:
    def test_figure16_multiplexing_example(self):
        """Two 32 GB VMs with complementary VA demands (Figure 16b)."""
        windows = TimeWindowConfig(8)
        vm1 = make_prediction(
            windows,
            {r: [0.5, 0.25, 0.5] for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.875, 0.25, 0.6875] for r in ("cpu", "memory", "network", "ssd")})
        vm2 = make_prediction(
            windows,
            {r: [0.25, 0.375, 0.25] for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.25, 0.75, 0.5] for r in ("cpu", "memory", "network", "ssd")})
        alloc = {r: 32.0 for r in ALL_RESOURCES}
        plan1 = plan_vm("cvm1", alloc, vm1)
        plan2 = plan_vm("cvm2", alloc, vm2)

        pa = guaranteed_memory([plan1, plan2])
        va = multiplexed_oversubscribed_memory([plan1, plan2])
        naive_va = unmultiplexed_oversubscribed_memory([plan1, plan2])
        # Guaranteed = 16 + 12 = 28 GB; multiplexed VA < sum of peaks.
        assert pa == pytest.approx(28.0)
        assert va <= naive_va
        # Total backing fits the 48 GB server of the example.
        assert pa + va <= 48.0 + 1e-9
        backing = server_memory_backing([plan1, plan2])
        assert backing["pa_backing_gb"] == pytest.approx(pa)
        assert backing["va_backing_gb"] == pytest.approx(va)

    def test_multiplexing_empty_is_zero(self):
        assert multiplexed_oversubscribed_memory([]) == 0.0
        assert guaranteed_memory([]) == 0.0

    def test_scheduling_vector_has_extra_dimension_for_memory(self):
        windows = TimeWindowConfig(4)
        prediction = make_prediction(
            windows, {r: [0.3] * 6 for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.5] * 6 for r in ("cpu", "memory", "network", "ssd")})
        plan = plan_vm("vm", {r: 16.0 for r in ALL_RESOURCES}, prediction)
        vector = scheduling_vector(plan, Resource.MEMORY)
        assert vector.shape == (7,)
        assert vector[-1] == plan.plans[Resource.MEMORY].guaranteed
        cpu_vector = scheduling_vector(plan, Resource.CPU)
        assert cpu_vector[-1] == 0.0


class TestCoachVM:
    def _plan(self, windows=TimeWindowConfig(4)):
        prediction = make_prediction(
            windows, {r: [0.5] * windows.windows_per_day
                      for r in ("cpu", "memory", "network", "ssd")},
            {r: [0.75] * windows.windows_per_day
             for r in ("cpu", "memory", "network", "ssd")})
        return plan_vm("vm-1", {r: 16.0 for r in ALL_RESOURCES}, prediction)

    def _record(self):
        config = VM_CATALOG["D4_v5"]
        return VMRecord(vm_id="vm-1", subscription_id="s", config=config,
                        cluster_id="C1", start_slot=0, end_slot=10,
                        utilization={r: UtilizationSeries([0.5] * 10, 0)
                                     for r in ALL_RESOURCES})

    def test_from_plan_splits_memory(self):
        coach_vm = CoachVM.from_plan(self._record(), self._plan(), 0.7)
        assert coach_vm.memory.pa_gb == pytest.approx(8.0)
        assert coach_vm.memory.va_gb == pytest.approx(8.0)
        assert coach_vm.memory.va_backed_gb == pytest.approx(5.6)
        assert coach_vm.is_oversubscribed

    def test_fully_guaranteed_vm(self):
        plan = self._plan()
        memory = MemorySplit(pa_gb=plan.plans[Resource.MEMORY].requested,
                             va_gb=0.0, va_backed_gb=0.0)
        coach_vm = CoachVM(vm=self._record(), plan=plan, memory=memory)
        assert coach_vm.memory.va_gb == 0.0
        assert not coach_vm.is_oversubscribed

    def test_trim_and_back_accounting(self):
        coach_vm = CoachVM.from_plan(self._record(), self._plan(), 1.0)
        coach_vm.update_cold_memory(demand_gb=10.0)
        assert coach_vm.cold_memory_gb == pytest.approx(6.0)
        freed = coach_vm.trim(4.0)
        assert freed == pytest.approx(4.0)
        assert coach_vm.memory.va_backed_gb == pytest.approx(4.0)
        added = coach_vm.back_va(10.0)
        assert added == pytest.approx(4.0)  # capped at the VA size

    def test_unbacked_demand(self):
        coach_vm = CoachVM.from_plan(self._record(), self._plan(), 0.0)
        assert coach_vm.unbacked_demand_gb(12.0) == pytest.approx(4.0)
        assert coach_vm.unbacked_demand_gb(6.0) == 0.0

    def test_oversubscription_rate(self):
        coach_vm = CoachVM.from_plan(self._record(), self._plan())
        assert coach_vm.oversubscription_rate(Resource.MEMORY) == pytest.approx(0.5)

    def test_invalid_memory_split_rejected(self):
        with pytest.raises(ValueError):
            MemorySplit(pa_gb=4.0, va_gb=2.0, va_backed_gb=3.0).validate()


@settings(max_examples=40, deadline=None)
@given(
    percentiles=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
    maxima=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
    allocated=st.floats(min_value=1.0, max_value=512.0),
)
def test_plan_invariants_hold_for_any_prediction(percentiles, maxima, allocated):
    """Eq. 1-2 invariants: PA <= request, VA demand >= 0, demand <= request."""
    windows = TimeWindowConfig(4)
    prediction = make_prediction(
        windows,
        {r: percentiles for r in ("cpu", "memory", "network", "ssd")},
        {r: maxima for r in ("cpu", "memory", "network", "ssd")},
    ).clipped()
    plan = plan_vm("vm", {r: allocated for r in ALL_RESOURCES}, prediction)
    for resource in ALL_RESOURCES:
        rp = plan.plans[resource]
        assert rp.guaranteed <= rp.requested + 1e-6
        assert np.all(rp.window_oversubscribed >= -1e-9)
        assert np.all(rp.window_demand <= rp.requested + 1e-6)


@settings(max_examples=40, deadline=None)
@given(
    n_vms=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_multiplexed_backing_never_exceeds_naive_sum(n_vms, seed):
    """Eq. 4 saves memory relative to summing per-VM peaks (or ties)."""
    rng = np.random.default_rng(seed)
    windows = TimeWindowConfig(4)
    plans = []
    for i in range(n_vms):
        pct = rng.uniform(0, 0.8, windows.windows_per_day)
        mx = np.minimum(1.0, pct + rng.uniform(0, 0.3, windows.windows_per_day))
        prediction = make_prediction(
            windows, {r: pct for r in ("cpu", "memory", "network", "ssd")},
            {r: mx for r in ("cpu", "memory", "network", "ssd")})
        plans.append(plan_vm(f"vm-{i}", {r: 32.0 for r in ALL_RESOURCES}, prediction))
    assert (multiplexed_oversubscribed_memory(plans)
            <= unmultiplexed_oversubscribed_memory(plans) + 1e-9)
