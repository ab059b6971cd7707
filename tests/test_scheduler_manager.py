"""Tests for the scheduler, policies, and cluster manager."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cluster_manager import ClusterManager, build_prediction_model
from repro.core.policy import (
    AGGR_COACH_POLICY,
    COACH_POLICY,
    NO_OVERSUBSCRIPTION_POLICY,
    SINGLE_RATE_POLICY,
    STANDARD_POLICIES,
    policy_by_name,
)
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import (
    ClusterScheduler,
    ServerAccount,
    plan_demand_matrix,
    schedule_all,
)
from repro.core.windows import plan_vm
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
    OracleUtilizationModel,
    WindowUtilizationPrediction,
)
from repro.trace.hardware import ClusterConfig, HARDWARE_GENERATIONS
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import AllocationClass


class TestPolicies:
    def test_standard_policies_present(self):
        assert set(STANDARD_POLICIES) == {"none", "single", "coach", "aggr-coach"}

    def test_coach_defaults(self):
        assert COACH_POLICY.windows.window_hours == 4
        assert COACH_POLICY.percentile == 95.0
        assert COACH_POLICY.oversubscribe

    def test_aggressive_uses_p50(self):
        assert AGGR_COACH_POLICY.percentile == 50.0

    def test_single_rate_uses_one_window(self):
        assert SINGLE_RATE_POLICY.windows.windows_per_day == 1

    def test_none_disables_oversubscription(self):
        assert not NO_OVERSUBSCRIPTION_POLICY.oversubscribe

    def test_lookup_by_name(self):
        assert policy_by_name("Coach") is COACH_POLICY
        with pytest.raises(KeyError):
            policy_by_name("bogus")


def _flat_prediction(windows, percentile, maximum):
    return WindowUtilizationPrediction(
        windows=windows,
        percentile={r: np.full(windows.windows_per_day, percentile) for r in ALL_RESOURCES},
        maximum={r: np.full(windows.windows_per_day, maximum) for r in ALL_RESOURCES},
    )


def _plan(vm_id, windows, memory_gb=16.0, cores=4.0, percentile=1.0, maximum=1.0):
    prediction = _flat_prediction(windows, percentile, maximum)
    allocation = {Resource.CPU: cores, Resource.MEMORY: memory_gb,
                  Resource.NETWORK: 2.0, Resource.SSD: 128.0}
    return plan_vm(vm_id, allocation, prediction, oversubscribe=percentile < 1.0)


def _random_window_plan(rng, vm_id, windows, random_size=False):
    """A plan with random per-window utilization (and optionally random size).

    Shared by the churn-drift regression and the ledger property tests so
    the randomized plan shape cannot drift between them.
    """
    n = windows.windows_per_day
    maximum = {r: rng.uniform(0.1, 1.0, n) for r in ALL_RESOURCES}
    percentile = {r: np.minimum(maximum[r], rng.uniform(0.05, 0.9, n))
                  for r in ALL_RESOURCES}
    prediction = WindowUtilizationPrediction(
        windows=windows, percentile=percentile, maximum=maximum)
    if random_size:
        cores = float(rng.choice([1, 2, 2, 4, 8]))
        allocation = {Resource.CPU: cores,
                      Resource.MEMORY: cores * float(rng.choice([2, 4, 8])),
                      Resource.NETWORK: min(0.5 * cores, 16.0),
                      Resource.SSD: 32.0 * cores}
        oversubscribe = bool(rng.random() < 0.8)
    else:
        allocation = {Resource.CPU: 2.0, Resource.MEMORY: 8.0,
                      Resource.NETWORK: 1.0, Resource.SSD: 64.0}
        oversubscribe = True
    return plan_vm(vm_id, allocation, prediction, oversubscribe=oversubscribe)


class TestServerAccount:
    def _account(self, windows=TimeWindowConfig(4)):
        return ServerAccount("s0", HARDWARE_GENERATIONS["gen4-intel"], windows)

    def test_commit_and_release_are_inverse(self):
        account = self._account()
        plan = _plan("vm-a", account.windows, percentile=0.5, maximum=0.75)
        account.commit(plan)
        assert account.n_vms == 1
        assert account.pa_memory_gb > 0
        account.release("vm-a")
        assert account.n_vms == 0
        assert account.pa_memory_gb == pytest.approx(0.0)
        assert np.allclose(account.va_window_demand, 0.0)

    def test_full_allocation_packing_limit(self):
        """Without oversubscription, a 40-core/160 GB server fits ten 4-core/16 GB VMs."""
        account = self._account()
        placed = 0
        for i in range(15):
            plan = _plan(f"vm-{i}", account.windows)
            if account.can_fit(plan):
                account.commit(plan)
                placed += 1
        assert placed == 10

    def test_oversubscription_fits_more(self):
        account = self._account()
        placed = 0
        for i in range(40):
            plan = _plan(f"vm-{i}", account.windows, percentile=0.5, maximum=0.6)
            if account.can_fit(plan):
                account.commit(plan)
                placed += 1
        assert placed > 10

    def test_duplicate_commit_rejected(self):
        account = self._account()
        plan = _plan("vm-a", account.windows)
        account.commit(plan)
        with pytest.raises(ValueError):
            account.commit(plan)

    def test_release_unknown_vm_raises(self):
        with pytest.raises(KeyError):
            self._account().release("ghost")

    def test_window_mismatch_rejected(self):
        account = self._account(TimeWindowConfig(4))
        plan = _plan("vm-a", TimeWindowConfig(8))
        with pytest.raises(ValueError):
            account.can_fit(plan)

    def test_backing_check_stricter_than_vector_check(self):
        account = self._account()
        # Fill most of the server, then check the two admission variants agree
        # on obviously-fitting and obviously-not-fitting plans.
        small = _plan("small", account.windows, memory_gb=8.0, cores=2.0,
                      percentile=0.25, maximum=0.5)
        assert account.fits_vector_check(small) and account.fits_backing_check(small)
        huge = _plan("huge", account.windows, memory_gb=512.0, cores=80.0)
        assert not account.fits_vector_check(huge)
        assert not account.fits_backing_check(huge)


class TestReleaseDriftRegression:
    """Repeated commit/release churn must not accumulate float residues."""

    def test_thousand_cycle_churn_leaves_account_exactly_empty(self):
        windows = TimeWindowConfig(4)
        account = ServerAccount("s0", HARDWARE_GENERATIONS["gen4-intel"], windows)
        rng = np.random.default_rng(31)
        resident = _random_window_plan(rng, "resident", windows)
        account.commit(resident)
        for cycle in range(1000):
            first = _random_window_plan(rng, f"churn-{cycle}-a", windows)
            second = _random_window_plan(rng, f"churn-{cycle}-b", windows)
            account.commit(first)
            account.commit(second)
            # Release in commit order (not LIFO) so the float additions and
            # subtractions interleave instead of trivially cancelling.
            account.release(first.vm_id)
            account.release(second.vm_id)
        account.release("resident")
        assert account.is_empty()
        # Exact zeros, not approximately zero: residues must be snapped.
        assert account.pa_memory_gb == 0.0
        assert np.all(account.va_window_demand == 0.0)
        for resource in ALL_RESOURCES:
            assert np.all(account.window_demand[resource] == 0.0)

    def test_empty_account_never_looks_partially_full(self):
        windows = TimeWindowConfig(4)
        account = ServerAccount("s0", HARDWARE_GENERATIONS["gen4-intel"], windows)
        rng = np.random.default_rng(77)
        for cycle in range(200):
            plan = _random_window_plan(rng, f"vm-{cycle}", windows)
            account.commit(plan)
            account.release(plan.vm_id)
            assert account.committed_memory_backing_gb == 0.0


class TestLedgerInvariants:
    """Property-style check: whatever the commit/release interleaving, every
    ledger row must equal the summed demands of the plans currently live on
    it, and fully drain to exact zero when the last plan leaves."""

    def _assert_rows_match_live_plans(self, scheduler):
        ledger = scheduler.ledger
        for account in scheduler.servers.values():
            row = account._row
            expected_demand = np.zeros((len(ALL_RESOURCES), ledger.n_windows))
            expected_pa = 0.0
            expected_va = np.zeros(ledger.n_windows)
            for plan in account.plans.values():
                expected_demand += plan_demand_matrix(plan)
                memory_plan = plan.plans[Resource.MEMORY]
                expected_pa += memory_plan.guaranteed
                expected_va += memory_plan.window_oversubscribed
            np.testing.assert_allclose(ledger.demand[:, row], expected_demand,
                                       atol=1e-9)
            assert ledger.pa_memory[row] == pytest.approx(expected_pa, abs=1e-9)
            np.testing.assert_allclose(ledger.va_demand[row], expected_va, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 13, 99, 4096])
    def test_random_interleavings_preserve_row_sums(self, seed):
        windows = TimeWindowConfig(4)
        cluster = ClusterConfig("LP", "test", (("gen4-intel", 2), ("gen6-amd", 1)))
        scheduler = ClusterScheduler(cluster, windows)
        rng = np.random.default_rng(seed)
        live = []
        for i in range(250):
            if live and rng.random() < 0.45:
                victim = live.pop(int(rng.integers(len(live))))
                scheduler.deallocate(victim)
            else:
                plan = _random_window_plan(rng, f"vm-{seed}-{i}", windows,
                                           random_size=True)
                if scheduler.place(plan).accepted:
                    live.append(plan.vm_id)
            if i % 25 == 0:
                self._assert_rows_match_live_plans(scheduler)
        self._assert_rows_match_live_plans(scheduler)

        # Drain everything: rows must be *exactly* zero, not approximately.
        for vm_id in live:
            scheduler.deallocate(vm_id)
        ledger = scheduler.ledger
        assert np.all(ledger.demand == 0.0)
        assert np.all(ledger.pa_memory == 0.0)
        assert np.all(ledger.va_demand == 0.0)
        assert scheduler.servers_in_use() == 0


class TestClusterScheduler:
    def _scheduler(self, windows=TimeWindowConfig(4)):
        cluster = ClusterConfig("CT", "test", (("gen4-intel", 2),))
        return ClusterScheduler(cluster, windows)

    def test_placement_and_deallocation(self):
        scheduler = self._scheduler()
        plan = _plan("vm-a", TimeWindowConfig(4))
        decision = scheduler.place(plan)
        assert decision.accepted
        assert "vm-a" in scheduler.servers[decision.server_id].plans
        scheduler.deallocate("vm-a")
        assert "vm-a" not in scheduler.servers[decision.server_id].plans
        assert scheduler.servers_in_use() == 0

    def test_best_fit_consolidates(self):
        scheduler = self._scheduler()
        decisions = schedule_all(scheduler, [
            _plan(f"vm-{i}", TimeWindowConfig(4), memory_gb=8.0, cores=2.0)
            for i in range(5)])
        assert all(d.accepted for d in decisions)
        # Best-fit should pack all five small VMs onto a single server.
        assert scheduler.servers_in_use() == 1

    def test_duplicate_placement_rejected_until_deallocated(self):
        """Placing an already-placed vm_id must fail loudly (a silent
        overwrite would leak the old server's committed demand), and succeed
        again once the VM is deallocated."""
        scheduler = self._scheduler()
        plan = _plan("vm-a", TimeWindowConfig(4))
        assert scheduler.place(plan).accepted
        with pytest.raises(ValueError):
            scheduler.place(_plan("vm-a", TimeWindowConfig(4)))
        scheduler.deallocate("vm-a")
        assert scheduler.place(_plan("vm-a", TimeWindowConfig(4))).accepted

    def test_rejection_when_full(self):
        scheduler = self._scheduler()
        decisions = schedule_all(scheduler, [
            _plan(f"vm-{i}", TimeWindowConfig(4), memory_gb=64.0, cores=16.0)
            for i in range(10)])
        assert any(not d.accepted for d in decisions)
        assert scheduler.rejected_count() > 0
        assert scheduler.accepted_count() + scheduler.rejected_count() == 10

    def test_decision_ring_is_capped_but_counters_are_exact(self):
        cluster = ClusterConfig("CT", "test", (("gen4-intel", 2),))
        scheduler = ClusterScheduler(cluster, TimeWindowConfig(4),
                                     decision_history=4)
        schedule_all(scheduler, [
            _plan(f"vm-{i}", TimeWindowConfig(4), memory_gb=64.0, cores=16.0)
            for i in range(10)])
        assert len(scheduler.decisions) == 4
        assert scheduler.accepted_count() + scheduler.rejected_count() == 10

    def test_capacity_totals(self):
        scheduler = self._scheduler()
        assert scheduler.total_capacity(Resource.CPU) == pytest.approx(80.0)
        assert scheduler.total_capacity(Resource.MEMORY) == pytest.approx(320.0)


class TestClusterManager:
    def test_none_policy_never_oversubscribes(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 NO_OVERSUBSCRIPTION_POLICY)
        vms = [vm for vm in tiny_trace.vms if vm.cluster_id == cluster_id][:10]
        results = manager.request_batch(vms)
        for result in results:
            if result.accepted:
                assert not result.coach_vm.is_oversubscribed
        assert manager.stats.oversubscribed == 0

    def test_coach_policy_with_oracle_oversubscribes(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        oracle = OracleUtilizationModel(COACH_POLICY.windows, COACH_POLICY.percentile)
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id), COACH_POLICY, oracle)
        vms = [vm for vm in tiny_trace.vms if vm.cluster_id == cluster_id][:10]
        results = manager.request_batch(vms)
        accepted = [r for r in results if r.accepted]
        assert accepted
        assert any(r.coach_vm.is_oversubscribed for r in accepted)
        assert manager.stats.savings_gb > 0

    def test_deallocate_frees_capacity(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 NO_OVERSUBSCRIPTION_POLICY)
        vm = next(v for v in tiny_trace.vms if v.cluster_id == cluster_id)
        result = manager.request_vm(vm)
        assert result.accepted
        manager.deallocate(vm.vm_id)
        assert vm.vm_id not in manager.placed_vms()

    def test_window_mismatch_between_policy_and_model(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        wrong_model = NoOversubscriptionModel(TimeWindowConfig(8))
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id), COACH_POLICY, wrong_model)
        with pytest.raises(ValueError):
            manager.request_vm(tiny_trace.vms[0])

    def test_capacity_summary_keys(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 NO_OVERSUBSCRIPTION_POLICY)
        summary = manager.capacity_summary()
        assert {"vms_placed", "servers_in_use", "allocated_cores"} <= set(summary)

    def test_vms_on_server_index_tracks_admit_and_deallocate(self, tiny_trace):
        """The server->vm index must stay consistent through deallocate and
        reuse of the freed capacity by later arrivals."""
        cluster_id = tiny_trace.cluster_ids()[0]
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 NO_OVERSUBSCRIPTION_POLICY)
        vms = [vm for vm in tiny_trace.vms if vm.cluster_id == cluster_id][:12]
        accepted = [r for r in manager.request_batch(vms) if r.accepted]
        assert len(accepted) >= 3

        def index_snapshot():
            by_server = {}
            for coach_vm in manager.placed_vms().values():
                by_server.setdefault(coach_vm.server_id, set()).add(coach_vm.vm_id)
            return by_server

        for server_id, expected in index_snapshot().items():
            assert {vm.vm_id for vm in manager.vms_on_server(server_id)} == expected

        # Deallocate one VM: it must vanish from its server's listing only.
        victim = accepted[0]
        manager.deallocate(victim.vm_id)
        assert victim.vm_id not in {
            vm.vm_id for vm in manager.vms_on_server(victim.server_id)}
        for server_id, expected in index_snapshot().items():
            assert {vm.vm_id for vm in manager.vms_on_server(server_id)} == expected

        # Reuse: re-admit the same VM record; the index must pick it up on
        # whichever server it now lands on.
        again = manager.request_vm(victim.coach_vm.vm)
        assert again.accepted
        assert again.vm_id in {
            vm.vm_id for vm in manager.vms_on_server(again.server_id)}
        # Unknown server ids simply report no residents.
        assert manager.vms_on_server("no-such-server") == []

    def test_default_manager_preempts_spot_for_reserved(self, tiny_trace):
        """A default manager reads each VM's class: once spot VMs fill the
        cluster, a reserved arrival that fits nowhere evicts the oldest of
        them until it lands."""
        cluster = ClusterConfig("CP", "test", (("gen4-intel", 1),))
        manager = ClusterManager(cluster, NO_OVERSUBSCRIPTION_POLICY)
        spot = [replace(vm, allocation_class=AllocationClass.SPOT)
                for vm in tiny_trace.vms]
        results = manager.request_batch(spot)
        placed = [result.vm_id for result in results if result.accepted]
        rejected = [vm for vm, result in zip(spot, results)
                    if not result.accepted]
        assert placed and rejected, "the spot VMs must fill the server"
        server_id = results[0].server_id

        arrival = replace(min(rejected, key=lambda vm: vm.allocated(Resource.MEMORY)),
                          allocation_class=AllocationClass.RESERVED)
        result = manager.request_vm(arrival)
        assert result.accepted and result.server_id == server_id
        # Oldest accepted first, and only as many as the arrival needed.
        assert result.preempted == tuple(placed[:len(result.preempted)])
        assert result.preempted
        assert manager.stats.preempted == len(result.preempted)
        survivors = placed[len(result.preempted):] + [arrival.vm_id]
        assert list(manager.placed_vms()) == survivors
        assert [vm.vm_id for vm in manager.vms_on_server(server_id)] == survivors

    def test_build_prediction_model_variants(self, tiny_trace):
        history = tiny_trace.long_running().vms
        none_model = build_prediction_model(NO_OVERSUBSCRIPTION_POLICY, history)
        assert isinstance(none_model, NoOversubscriptionModel)
        learned = build_prediction_model(COACH_POLICY, history, n_estimators=1)
        assert isinstance(learned, LongTermUtilizationModel)
