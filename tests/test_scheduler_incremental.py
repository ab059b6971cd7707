"""Differential tests for the incremental scheduler layer (PR 7).

Contracts pinned here:

* the :class:`ClusterLedger` caches (``demand_sum`` / ``demand_peak`` /
  ``va_peak`` / ``score_base`` / ``row_used``) stay *bitwise* equal to a
  fresh full-matrix recompute after thousands of interleaved commit/release
  cycles -- the float-drift regression for the summation-order contract;
* the incremental best-fit (``ClusterScheduler(incremental=True)``, the
  default) produces decision sequences identical to the dense PR 6 path,
  including rejection ordering on saturated clusters;
* :meth:`ClusterManager.request_batch` admits exactly like sequential
  :meth:`ClusterManager.request_vm` calls (class-aware preemption
  included) and like the dense scheduler fed the same plans, and it
  builds every plan before placing any: an empty batch is a no-op, and a
  batch whose plan building fails places nothing and counts nothing (a
  failed single request counts nothing either);
* the over-release accounting fixes: :meth:`ClusterLedger.release_row`
  raises on genuinely negative residues (double release, never-committed
  plans) instead of clamping, and
  :func:`bulk_cpu_capacity_and_memory_backing` returns empty vectors for
  empty account sequences (zero-server clusters);
* the PR 9 tiered candidate index: decisions and ledgers at 100k servers
  (the band-descent regime) stay bitwise equal to the dense reference, and
  an index rebuilt from scratch is indistinguishable -- structurally and
  behaviourally -- from one maintained incrementally through
  commit/release churn.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cluster_manager import ClusterManager
from repro.core.policy import COACH_POLICY
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import (
    _TIERED_MIN_SERVERS,
    ClusterLedger,
    ClusterScheduler,
    ServerAccount,
    _plan_screen_stats,
    bulk_cpu_capacity_and_memory_backing,
    plan_demand_matrix,
)
from repro.simulator.synthetic import build_scaled_bench_cluster
from repro.core.windows import plan_vm
from repro.prediction.utilization_model import (
    NoOversubscriptionModel,
    OracleUtilizationModel,
    WindowUtilizationPrediction,
)
from repro.trace.hardware import HARDWARE_GENERATIONS, ClusterConfig
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import AllocationClass

WINDOWS = TimeWindowConfig(4)

SMALL_CLUSTER = ClusterConfig(
    "INC", "test",
    (("gen4-intel", 6), ("gen5-intel", 5), ("gen6-amd", 5), ("gen7-amd", 4)))

#: A cluster tiny enough that a long plan stream saturates it, so the
#: incremental-vs-dense comparison exercises rejection ordering too.
TINY_CLUSTER = ClusterConfig("TINY", "test", (("gen4-intel", 3),))


def _random_plan(rng, vm_id, *, windows=WINDOWS):
    n = windows.windows_per_day
    maximum = {r: rng.uniform(0.1, 1.0, n) for r in ALL_RESOURCES}
    percentile = {r: np.minimum(maximum[r], rng.uniform(0.05, 0.9, n))
                  for r in ALL_RESOURCES}
    prediction = WindowUtilizationPrediction(
        windows=windows, percentile=percentile, maximum=maximum)
    cores = float(rng.choice([1, 2, 2, 4, 8]))
    allocation = {Resource.CPU: cores,
                  Resource.MEMORY: cores * float(rng.choice([2, 4, 8])),
                  Resource.NETWORK: min(0.5 * cores, 16.0),
                  Resource.SSD: 32.0 * cores}
    return plan_vm(vm_id, allocation, prediction,
                   oversubscribe=bool(rng.random() < 0.8))


def _assert_caches_fresh(ledger: ClusterLedger) -> None:
    """Every cache must equal a from-scratch reduction, bitwise."""
    assert np.array_equal(ledger.demand_sum, ledger.demand.sum(axis=2))
    assert np.array_equal(ledger.demand_peak, ledger.demand.max(axis=2))
    assert np.array_equal(ledger.va_peak, ledger.va_demand.max(axis=1))
    fresh_base = np.array([
        (ledger.demand_sum[:, s] / ledger.n_windows)
        @ ledger._inv_capacity[:, s]
        for s in range(ledger.n_servers)])
    assert np.array_equal(ledger.score_base, fresh_base)
    for s in range(ledger.n_servers):
        used = bool(ledger.demand[:, s].any() or ledger.pa_memory[s]
                    or ledger.va_demand[s].any())
        assert bool(ledger.row_used[s]) == used


class TestIncrementalCacheChurn:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_thousands_of_commit_release_cycles_leave_caches_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        dense = ClusterScheduler(SMALL_CLUSTER, WINDOWS, incremental=False)
        placed: list = []
        for i in range(3000):
            plan = _random_plan(rng, f"vm-{i}")
            decision = scheduler.place(plan)
            assert dense.place(plan) == decision
            if decision.accepted:
                placed.append(plan.vm_id)
            # ~40% deallocation churn keeps commit and release interleaved.
            if placed and rng.random() < 0.4:
                victim = placed.pop(int(rng.integers(len(placed))))
                scheduler.deallocate(victim)
                dense.deallocate(victim)
        _assert_caches_fresh(scheduler.ledger)
        # The incremental scores must equal a fresh full mean(axis=2) pass.
        assert np.array_equal(scheduler.ledger.packing_scores(),
                              dense.ledger.packing_scores())
        assert np.array_equal(scheduler.ledger.demand, dense.ledger.demand)

    def test_incremental_scores_match_dense_for_arbitrary_plans(self):
        rng = np.random.default_rng(11)
        scheduler = ClusterScheduler(SMALL_CLUSTER, WINDOWS)
        for i in range(200):
            scheduler.place(_random_plan(rng, f"vm-{i}"))
        ledger = scheduler.ledger
        probe_plan = _random_plan(rng, "probe")
        probe = plan_demand_matrix(probe_plan)
        memory_plan = probe_plan.plans[Resource.MEMORY]
        stats = _plan_screen_stats(probe, memory_plan.window_oversubscribed)
        _fit, _fail, approx = ledger._screen_rows(
            slice(None), memory_plan.guaranteed, stats)
        exact = ledger.packing_scores(probe)
        # The approximation drives candidate screening only; it must stay
        # within the tolerance band the gathered exact re-score relies on.
        assert np.all(np.abs(approx - exact) < 1e-9)


class _FailOnSecondVM:
    """Prediction stub whose windows stop matching the policy after one VM."""

    def __init__(self, windows):
        self._models = [NoOversubscriptionModel(windows),
                        NoOversubscriptionModel(TimeWindowConfig(8))]
        self.calls = 0

    def predict(self, vm):
        self.calls += 1
        return self._models[min(self.calls, 2) - 1].predict(vm)


def _oracle_manager(cluster):
    """A Coach manager whose oracle predictions make most plans
    oversubscribed, so admission exercises the window-extended checks."""
    oracle = OracleUtilizationModel(COACH_POLICY.windows,
                                    COACH_POLICY.percentile)
    return ClusterManager(cluster, COACH_POLICY, oracle)


class TestBatchedPlacement:
    @pytest.mark.parametrize("cluster", [SMALL_CLUSTER, TINY_CLUSTER],
                             ids=["small", "saturating"])
    def test_request_batch_equals_sequential_request_vm(self, cluster,
                                                         small_trace):
        vms = list(small_trace.vms)
        sequential = _oracle_manager(cluster)
        batched = _oracle_manager(cluster)
        expected = [sequential.request_vm(vm).decision for vm in vms]
        actual = [result.decision for result in batched.request_batch(vms)]
        assert actual == expected
        if cluster is TINY_CLUSTER:
            # The saturating stream must genuinely exercise rejections.
            assert any(not d.accepted for d in expected)
        assert batched.stats == sequential.stats
        assert batched.placed_vms().keys() == sequential.placed_vms().keys()
        assert np.array_equal(batched.scheduler.ledger.demand,
                              sequential.scheduler.ledger.demand)

    def test_request_batch_equals_dense_reference(self, small_trace):
        vms = list(small_trace.vms)
        manager = _oracle_manager(SMALL_CLUSTER)
        dense = ClusterScheduler(SMALL_CLUSTER, COACH_POLICY.windows,
                                 incremental=False)
        expected = [dense.place(manager.build_plan(vm)) for vm in vms]
        actual = [result.decision for result in manager.request_batch(vms)]
        assert actual == expected
        assert np.array_equal(manager.scheduler.ledger.demand,
                              dense.ledger.demand)

    def test_class_aware_batch_equals_sequential_request_vm(self,
                                                            small_trace):
        # Spot VMs fill the tiny cluster first; the reserved arrivals that
        # follow must preempt them mid-batch.  Building every plan up front
        # cannot change a decision, because preemption only touches the
        # ledger and plans depend on the prediction model alone.
        vms = list(small_trace.vms)
        half = len(vms) // 2
        vms = ([replace(vm, allocation_class=AllocationClass.SPOT)
                for vm in vms[:half]]
               + [replace(vm, allocation_class=AllocationClass.RESERVED)
                  for vm in vms[half:]])
        sequential = _oracle_manager(TINY_CLUSTER)
        batched = _oracle_manager(TINY_CLUSTER)
        expected = [sequential.request_vm(vm).decision for vm in vms]
        actual = [result.decision for result in batched.request_batch(vms)]
        assert actual == expected
        assert sequential.stats.preempted > 0, \
            "reserved arrivals must preempt spot VMs"
        assert batched.stats == sequential.stats
        assert batched.placed_vms().keys() == sequential.placed_vms().keys()
        assert np.array_equal(batched.scheduler.ledger.demand,
                              sequential.scheduler.ledger.demand)

    def test_empty_batch_is_a_noop(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 COACH_POLICY)
        assert manager.request_batch([]) == []
        assert manager.stats.requests == 0
        assert manager.scheduler.accepted_count() == 0

    def test_window_mismatch_fails_batch_before_any_commit(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        model = _FailOnSecondVM(COACH_POLICY.windows)
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 COACH_POLICY, model)
        vms = [vm for vm in tiny_trace.vms if vm.cluster_id == cluster_id][:4]
        assert len(vms) == 4
        with pytest.raises(ValueError, match="different time window"):
            manager.request_batch(vms)
        assert model.calls == 2
        # Plans are built before any placement: the good first VM was not
        # committed, and no request was counted without a decision.
        assert manager.placed_vms() == {}
        assert manager.scheduler.servers_in_use() == 0
        stats = manager.stats
        assert stats.requests == stats.accepted + stats.rejected == 0

    def test_failed_request_vm_counts_nothing(self, tiny_trace):
        cluster_id = tiny_trace.cluster_ids()[0]
        model = _FailOnSecondVM(COACH_POLICY.windows)
        manager = ClusterManager(tiny_trace.fleet.get(cluster_id),
                                 COACH_POLICY, model)
        first, second = [vm for vm in tiny_trace.vms
                         if vm.cluster_id == cluster_id][:2]
        result = manager.request_vm(first)
        with pytest.raises(ValueError, match="different time window"):
            manager.request_vm(second)
        # Only the request that reached a decision is counted.
        stats = manager.stats
        assert stats.requests == stats.accepted + stats.rejected == 1
        assert list(manager.placed_vms()) == ([first.vm_id]
                                              if result.accepted else [])


class TestTieredIndexDifferential:
    """PR 9: the band-descent candidate index."""

    def test_100k_server_place_matches_dense(self):
        # Smoke-scale version of the benchmark acceptance criterion: at
        # 100k servers every placement flows through the tiered index.
        # The incremental and dense schedulers must agree bitwise -- vm
        # ids, accept/reject order, chosen rows -- and leave
        # bitwise-identical ledgers.
        cluster = build_scaled_bench_cluster(100_000)
        rng = np.random.default_rng(17)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(60)]

        incremental = ClusterScheduler(cluster, WINDOWS)
        assert incremental.ledger.n_servers >= _TIERED_MIN_SERVERS
        dense = ClusterScheduler(cluster, WINDOWS, incremental=False)

        expected = [dense.place(plan) for plan in plans]
        assert [incremental.place(plan) for plan in plans] == expected
        assert all(decision.accepted for decision in expected), \
            "a 100k-server fleet must absorb a 60-plan stream"
        for name in ("demand", "pa_memory", "va_demand", "score_base"):
            assert np.array_equal(getattr(incremental.ledger, name),
                                  getattr(dense.ledger, name)), name

    def test_saturated_cluster_rejection_ordering_matches_dense(self):
        # Pre-saturate the tiny cluster on both twins, then feed a stream
        # that is mostly rejections: the incremental path must reproduce
        # the exact interleaving of residual accepts and rejects, not just
        # the accept set.
        rng = np.random.default_rng(23)
        warm = [_random_plan(rng, f"warm-{i}") for i in range(20)]
        late = [_random_plan(rng, f"late-{i}") for i in range(120)]
        incremental = ClusterScheduler(TINY_CLUSTER, WINDOWS)
        dense = ClusterScheduler(TINY_CLUSTER, WINDOWS, incremental=False)
        for plan in warm:
            assert incremental.place(plan) == dense.place(plan)

        expected = [dense.place(plan) for plan in late]
        actual = [incremental.place(plan) for plan in late]
        assert actual == expected
        rejected = [d.vm_id for d in expected if not d.accepted]
        assert len(rejected) >= 60, "the stream must be rejection-dominated"
        assert any(d.accepted for d in expected), \
            "residual accepts must interleave with the rejections"
        assert np.array_equal(incremental.ledger.demand, dense.ledger.demand)

    def test_rebuilt_index_matches_incrementally_maintained_twin(self):
        # Churn commits and releases through a fleet large enough for the
        # band-descent path, then rebuild one twin's index from scratch.
        # The rebuilt structures must match what incremental maintenance
        # produced, and subsequent decisions must stay bitwise equal to
        # the never-rebuilt twin.
        cluster = build_scaled_bench_cluster(10_000)
        rng = np.random.default_rng(31)
        churned = ClusterScheduler(cluster, WINDOWS)
        twin = ClusterScheduler(cluster, WINDOWS)
        assert churned.ledger.n_servers >= _TIERED_MIN_SERVERS
        placed: list = []
        for i in range(400):
            plan = _random_plan(rng, f"vm-{i}")
            decision = churned.place(plan)
            assert twin.place(plan) == decision
            if decision.accepted:
                placed.append(plan.vm_id)
            if placed and rng.random() < 0.4:
                victim = placed.pop(int(rng.integers(len(placed))))
                churned.deallocate(victim)
                twin.deallocate(victim)

        ledger = churned.ledger
        maintained_row_band = ledger._row_band.copy()
        maintained_bands = {band: set(members)
                            for band, members in ledger._band_members.items()}
        maintained_heaps = [list(heap) for heap in ledger._empty_heaps]

        ledger.rebuild_candidate_index()

        # Band structures are reproduced exactly by the from-scratch pass.
        assert np.array_equal(ledger._row_band, maintained_row_band)
        assert {band: set(members)
                for band, members in ledger._band_members.items()} \
            == maintained_bands
        # Heaps only guarantee coverage: a maintained heap may carry stale
        # entries for rows that became used again, but every currently
        # empty row must be present, and the eagerly-cleaned top must be
        # the globally lowest-index empty row of its kind -- the only
        # empty row that can win a tie.
        for kind, rebuilt in enumerate(ledger._empty_heaps):
            kind_rows = np.flatnonzero(ledger._capacity_kind == kind)
            empty_rows = {int(r) for r in kind_rows if not ledger.row_used[r]}
            maintained = maintained_heaps[kind]
            live = {row for row in maintained if not ledger.row_used[row]}
            assert live == empty_rows == set(rebuilt)
            if empty_rows:
                assert maintained[0] == rebuilt[0] == min(empty_rows)

        # Behavioural equality: the rebuilt index drives the same
        # decisions as the incrementally maintained one, bitwise.
        followup = [_random_plan(rng, f"post-{i}") for i in range(120)]
        assert [churned.place(plan) for plan in followup] \
            == [twin.place(plan) for plan in followup]
        assert np.array_equal(churned.ledger.score_base,
                              twin.ledger.score_base)
        _assert_caches_fresh(twin.ledger)


class TestOverReleaseAccounting:
    def _account(self):
        return ServerAccount("s0", HARDWARE_GENERATIONS["gen4-intel"], WINDOWS)

    def test_double_release_raises_instead_of_clamping(self):
        account = self._account()
        rng = np.random.default_rng(1)
        keep = _random_plan(rng, "keep")
        victim = _random_plan(rng, "victim")
        account.commit(keep)
        account.commit(victim)
        released = account.release("victim")
        snapshot = account._ledger.demand.copy()
        pa_snapshot = account._ledger.pa_memory.copy()
        va_snapshot = account._ledger.va_demand.copy()
        with pytest.raises(ValueError, match="already released"):
            account._ledger.release_row(account._row, released)
        # The failed release validated before mutating: the survivor's
        # accounting is untouched, bitwise.
        assert np.array_equal(account._ledger.demand, snapshot)
        assert np.array_equal(account._ledger.pa_memory, pa_snapshot)
        assert np.array_equal(account._ledger.va_demand, va_snapshot)

    def test_releasing_never_committed_plan_raises(self):
        account = self._account()
        rng = np.random.default_rng(2)
        account.commit(_random_plan(rng, "resident"))
        stranger = _random_plan(rng, "stranger")
        with pytest.raises(ValueError, match="not committed"):
            account._ledger.release_row(account._row, stranger)

    def test_failed_release_leaves_caches_in_sync(self):
        account = self._account()
        rng = np.random.default_rng(4)
        account.commit(_random_plan(rng, "resident"))
        with pytest.raises(ValueError):
            account._ledger.release_row(account._row, _random_plan(rng, "x"))
        _assert_caches_fresh(account._ledger)

    def test_legitimate_float_drift_still_snaps_to_zero(self):
        account = self._account()
        rng = np.random.default_rng(6)
        plans = [_random_plan(rng, f"vm-{i}") for i in range(20)]
        for plan in plans:
            account.commit(plan)
        for plan in plans:
            account.release(plan.vm_id)
        assert account.is_empty()
        assert not account._ledger.row_used[account._row]


class TestBulkEmptyAccounts:
    def test_empty_sequence_returns_empty_vectors(self):
        capacity, backing = bulk_cpu_capacity_and_memory_backing([])
        assert capacity.shape == (0,)
        assert backing.shape == (0,)
        assert capacity.dtype.kind == "f" and backing.dtype.kind == "f"

    def test_zero_server_cluster_schedules_without_crashing(self):
        cluster = ClusterConfig("EMPTY", "test", ())
        scheduler = ClusterScheduler(cluster, WINDOWS)
        capacity, backing = bulk_cpu_capacity_and_memory_backing(
            scheduler._accounts)
        assert capacity.shape == (0,) and backing.shape == (0,)
        rng = np.random.default_rng(8)
        decision = scheduler.place(_random_plan(rng, "vm-0"))
        assert not decision.accepted
        assert list(scheduler.decisions) == [decision]
        assert scheduler.rejected_count() == 1
