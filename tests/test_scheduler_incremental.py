"""Differential tests for the indexed scheduler ledger (PR 7).

Contracts pinned here:

* a ledger is indexed from :data:`_SCREENED_MIN_SERVERS` servers on, and
  its caches (``demand_peak`` / ``va_peak`` / ``score_base`` /
  ``row_used``) stay *bitwise* equal to a fresh full-matrix recompute after
  thousands of interleaved commit/release cycles -- the float-drift
  regression for the summation-order contract;
* every link of the indexed chain -- the screened link, and the tiered
  scan whenever it decides -- picks the row :meth:`best_fit_row_dense`
  picks on the same ledger state, before each placement of a churn stream
  with disabled servers (:func:`check_links`), on fleets of
  :data:`_SCREENED_MIN_SERVERS`, 1,000 and 100,000 servers; unindexed
  fleets are pinned against :class:`ReferenceLoopScheduler` instead,
  including rejection ordering on saturated clusters;
* both links keep the candidates within :data:`SCORE_TOLERANCE` of the
  best surely-fitting approximate score: a pinned state in which the
  approximation ranks the exact winner second fails either link narrowed
  to ``approx >= best_sure``;
* :meth:`ClusterManager.request_batch` admits exactly like sequential
  :meth:`ClusterManager.request_vm` calls (class-aware preemption
  included) and like the reference loop fed the plans of
  :meth:`ClusterManager.build_plans`, and it builds every plan before
  placing any: an empty batch is a no-op, and a batch whose plan building
  fails places nothing and counts nothing (a failed single request counts
  nothing either);
* the over-release accounting fixes: :meth:`ClusterLedger.release_row`
  raises on genuinely negative residues (double release, never-committed
  plans) instead of clamping, and
  :func:`bulk_cpu_capacity_and_memory_backing` returns empty vectors for
  empty account sequences (zero-server clusters);
* the PR 9 tiered candidate index: an index rebuilt from scratch is
  indistinguishable -- structurally and behaviourally -- from one
  maintained incrementally through commit/release churn;
* the scaling-curve benchmark times every link: each of its size lists
  holds an unindexed fleet, an indexed one below the tiered threshold and
  one at or above it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.cluster_manager import ClusterManager
from repro.core.policy import COACH_POLICY
from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import (
    _SCREENED_MIN_SERVERS,
    _TIERED_MIN_SERVERS,
    _TIERED_UNDECIDED,
    SCORE_TOLERANCE,
    ClusterLedger,
    ClusterScheduler,
    ReferenceLoopScheduler,
    ServerAccount,
    _plan_screen_stats,
    bulk_cpu_capacity_and_memory_backing,
    plan_demand_matrix,
)
from repro.simulator.synthetic import (
    SCHEDULER_SCALING_SIZES,
    SCHEDULER_SCALING_SIZES_SMOKE,
    build_scaled_bench_cluster,
)
from repro.core.windows import ResourcePlan, VMResourcePlan, plan_vm
from repro.prediction.utilization_model import (
    NoOversubscriptionModel,
    OracleUtilizationModel,
    WindowUtilizationPrediction,
)
from repro.trace.hardware import HARDWARE_GENERATIONS, ClusterConfig
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import AllocationClass

WINDOWS = TimeWindowConfig(4)

#: 20 servers: unindexed, so it places with the dense pass.
SMALL_CLUSTER = ClusterConfig(
    "INC", "test",
    (("gen4-intel", 6), ("gen5-intel", 5), ("gen6-amd", 5), ("gen7-amd", 4)))

#: A cluster tiny enough that a long plan stream saturates it, so the
#: comparison with the reference loop exercises rejection ordering too.
TINY_CLUSTER = ClusterConfig("TINY", "test", (("gen4-intel", 3),))

#: The smallest indexed fleet, in the scaling curve's four-generation shape.
INDEXED_CLUSTER = build_scaled_bench_cluster(_SCREENED_MIN_SERVERS)


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
    assert np.array_equal(ledger.demand_peak, ledger.demand.max(axis=2))
    assert np.array_equal(ledger.va_peak, ledger.va_demand.max(axis=1))
    demand_sum = ledger.demand.sum(axis=2)
    fresh_base = np.array([
        (demand_sum[:, s] / ledger.n_windows) @ ledger._inv_capacity[:, s]
        for s in range(ledger.n_servers)])
    assert np.array_equal(ledger.score_base, fresh_base)
    for s in range(ledger.n_servers):
        used = bool(ledger.demand[:, s].any() or ledger.pa_memory[s]
                    or ledger.va_demand[s].any())
        assert bool(ledger.row_used[s]) == used


def _reference_demand(reference: ReferenceLoopScheduler) -> np.ndarray:
    """The reference accounts' committed demand, stacked like a ledger's."""
    return np.stack([
        np.stack([account.window_demand[r]
                  for account in reference.servers.values()])
        for r in ALL_RESOURCES])


def check_links(ledger: ClusterLedger, plan) -> tuple:
    """Assert that each link of the indexed chain decides like the dense pass.

    Runs on the ledger's current state, without placing anything: the
    screened link must return :meth:`ClusterLedger.best_fit_row_dense`'s
    row, and so must the tiered scan whenever it decides (it may return
    :data:`_TIERED_UNDECIDED` at any fleet size).  Returns the dense row and
    whether the tiered scan decided.
    """
    plan_demand = plan_demand_matrix(plan)
    memory = plan.plans[Resource.MEMORY]
    args = (plan_demand, memory.guaranteed, memory.window_oversubscribed)
    stats = _plan_screen_stats(plan_demand, memory.window_oversubscribed)
    dense = ledger.best_fit_row_dense(*args)
    assert ledger._best_fit_row_screened(*args, stats) == dense, plan.vm_id
    tiered = ledger._best_fit_row_tiered(*args, stats)
    if tiered == _TIERED_UNDECIDED:
        return dense, False
    assert tiered == dense, plan.vm_id
    return dense, True


def churn_checking_links(scheduler: ClusterScheduler, rng, n_plans: int, *,
                         disable_at=()) -> dict:
    """Place a random churn stream, checking every link before each place.

    At each step in *disable_at*, the server that won a placement most
    recently since the last such step is disabled with its residents still
    committed (they leave later through the churn, released from a
    disabled row).  Every decision of ``place`` must equal the dense row
    :func:`check_links` saw.  Returns counts of the stream's outcomes.
    """
    ledger = scheduler.ledger
    assert ledger.indexed
    placed: list = []
    counts = {"accepted": 0, "rejected": 0, "tiered_decided": 0,
              "disabled": 0}
    last_winner = None
    for i in range(n_plans):
        if i in disable_at and last_winner is not None:
            scheduler.disable_server(last_winner)
            last_winner = None
            counts["disabled"] += 1
        plan = _random_plan(rng, f"vm-{i}")
        dense, tiered_decided = check_links(ledger, plan)
        counts["tiered_decided"] += tiered_decided
        decision = scheduler.place(plan)
        if decision.accepted:
            assert scheduler.servers[decision.server_id]._row == dense
            placed.append(plan.vm_id)
            last_winner = decision.server_id
            counts["accepted"] += 1
        else:
            assert dense == -1
            counts["rejected"] += 1
        # ~40% deallocation churn keeps commit and release interleaved.
        if placed and rng.random() < 0.4:
            scheduler.deallocate(placed.pop(int(rng.integers(len(placed)))))
    return counts


def test_ledger_is_indexed_from_the_screened_threshold():
    below = ClusterLedger(
        build_scaled_bench_cluster(_SCREENED_MIN_SERVERS - 1).server_configs(),
        WINDOWS)
    assert not below.indexed
    # An unindexed ledger keeps no cache, so none can be read stale.
    assert not hasattr(below, "row_used")
    assert ClusterLedger(INDEXED_CLUSTER.server_configs(), WINDOWS).indexed


@pytest.mark.parametrize("sizes", [SCHEDULER_SCALING_SIZES,
                                   SCHEDULER_SCALING_SIZES_SMOKE],
                         ids=["full", "smoke"])
def test_scaling_curve_sizes_time_every_link(sizes):
    # The scaling curve times and bitwise-checks the dense pass, the
    # screened link and the tiered scan only if its sizes straddle both
    # dispatch thresholds; moving a threshold must move the sizes too.
    assert any(n < _SCREENED_MIN_SERVERS for n in sizes)
    assert any(_SCREENED_MIN_SERVERS <= n < _TIERED_MIN_SERVERS
               for n in sizes)
    assert any(n >= _TIERED_MIN_SERVERS for n in sizes)


class TestIncrementalCacheChurn:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_thousands_of_commit_release_cycles_leave_caches_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scheduler = ClusterScheduler(INDEXED_CLUSTER, WINDOWS)
        # Three servers in four are disabled before the stream, so the 64
        # left saturate about halfway through it and the links also decide
        # rejections and near-full rows.
        for index, server_id in enumerate(scheduler.servers):
            if index % 4:
                scheduler.disable_server(server_id)
        counts = churn_checking_links(scheduler, rng, 3000,
                                      disable_at=(1000, 2000))
        assert counts["disabled"] == 2
        assert counts["accepted"] > 0 and counts["rejected"] > 0
        assert counts["tiered_decided"] > 0
        _assert_caches_fresh(scheduler.ledger)

    def test_incremental_scores_match_dense_for_arbitrary_plans(self):
        rng = np.random.default_rng(11)
        scheduler = ClusterScheduler(INDEXED_CLUSTER, WINDOWS)
        for i in range(200):
            scheduler.place(_random_plan(rng, f"vm-{i}"))
        ledger = scheduler.ledger
        probe_plan = _random_plan(rng, "probe")
        probe = plan_demand_matrix(probe_plan)
        memory_plan = probe_plan.plans[Resource.MEMORY]
        stats = _plan_screen_stats(probe, memory_plan.window_oversubscribed)
        _fit, _fail, approx = ledger._screen_rows(
            slice(None), memory_plan.guaranteed, stats)
        exact = np.array([account.packing_score(probe_plan)
                          for account in scheduler._accounts])
        # The approximation drives candidate screening only; it must stay
        # within the tolerance band the gathered exact re-score relies on.
        assert np.all(np.abs(approx - exact) < 1e-9)


class _FailOnSecondVM:
    """Prediction stub whose windows stop matching the policy after one VM:
    a ``predict_many`` call that includes the second VM it is ever asked
    about answers in 8-hour windows.  ``calls`` counts batch calls."""

    def __init__(self, windows):
        self._models = [NoOversubscriptionModel(windows),
                        NoOversubscriptionModel(TimeWindowConfig(8))]
        self.calls = 0
        self.vms_seen = 0

    def predict_many(self, vms):
        self.calls += 1
        self.vms_seen += len(vms)
        return self._models[min(self.vms_seen, 2) - 1].predict_many(vms)


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

    def test_request_batch_equals_reference_loop(self, small_trace):
        vms = list(small_trace.vms)
        manager = _oracle_manager(SMALL_CLUSTER)
        assert not manager.scheduler.ledger.indexed
        reference = ReferenceLoopScheduler(SMALL_CLUSTER, COACH_POLICY.windows)
        plans = manager.build_plans(vms)
        expected = [reference.place(plans.plan(row))
                    for row in range(len(plans))]
        actual = [result.decision for result in manager.request_batch(vms)]
        assert actual == expected
        assert np.array_equal(manager.scheduler.ledger.demand,
                              _reference_demand(reference))

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
        assert model.calls == 1
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


#: 256 gen6-amd servers: indexed, and memory capacity 256 GB, a power of two.
BAND_CLUSTER = ClusterConfig("BAND", "test", (("gen6-amd", _SCREENED_MIN_SERVERS),))

#: Committed memory demand per window of two servers, and a probe plan's,
#: for which the server with the higher approximate score has the lower
#: exact one.  Found by a seeded search over commit orders: four random
#: memory-only plans committed to both servers in two different orders
#: leave last-ulp differences between their window sums.  Only memory
#: carries demand and its capacity is a power of two, so every score the
#: ledger computes here is exact IEEE-754 arithmetic, the same on any
#: platform and BLAS.
_BAND_APPROX_WINNER = (
    "0x1.2fb3139c6eedfp+4", "0x1.a2dc5147b26d4p+4", "0x1.b45b49e084fcap+4",
    "0x1.b7597bce0ec6cp+4", "0x1.01560f7ddfabdp+5", "0x1.b5b98655e47c3p+4")
_BAND_EXACT_WINNER = (
    "0x1.2fb3139c6eee0p+4", "0x1.a2dc5147b26d4p+4", "0x1.b45b49e084fc9p+4",
    "0x1.b7597bce0ec6dp+4", "0x1.01560f7ddfabcp+5", "0x1.b5b98655e47c4p+4")
_BAND_PROBE = (
    "0x1.91821cb9d0d38p+0", "0x1.69a79738d679cp+2", "0x1.3fd3ea74b3562p+1",
    "0x1.14d74ffeb7501p+3", "0x1.395afa947719cp+3", "0x1.6ff6d86f2e112p+2")


def _memory_only_plan(vm_id, memory_demand):
    """A plan with per-window memory demand (hex floats) and nothing else."""
    demand = np.array([float.fromhex(value) for value in memory_demand])
    plans = {resource: ResourcePlan(
        resource, 64.0, 0.0,
        demand if resource is Resource.MEMORY else np.zeros(demand.size),
        np.zeros(demand.size))
        for resource in ALL_RESOURCES}
    return VMResourcePlan(vm_id, WINDOWS, plans)


class TestScreenedToleranceBand:
    """The screened link and the tiered scan keep every candidate whose
    approximate score lies within SCORE_TOLERANCE of the best
    surely-fitting one; this state needs that band."""

    def test_band_keeps_the_exact_winner_ranked_second_by_approximation(self):
        ledger = ClusterLedger(BAND_CLUSTER.server_configs(), WINDOWS)
        assert ledger.indexed
        # The exact winner has the higher row index, so the first-max
        # tie-break cannot be what picks it.
        approx_winner, exact_winner = 3, 7
        for row in range(ledger.n_servers):
            if row not in (approx_winner, exact_winner):
                ledger.disable_row(row)
        ledger.commit_row(approx_winner,
                          _memory_only_plan("a", _BAND_APPROX_WINNER))
        ledger.commit_row(exact_winner,
                          _memory_only_plan("b", _BAND_EXACT_WINNER))
        probe = _memory_only_plan("probe", _BAND_PROBE)
        plan_demand = plan_demand_matrix(probe)
        memory = probe.plans[Resource.MEMORY]
        stats = _plan_screen_stats(plan_demand, memory.window_oversubscribed)
        fit_hi, _fail, approx = ledger._screen_rows(
            slice(None), memory.guaranteed, stats)
        # Both rows surely fit, and the approximation ranks them the other
        # way round from the exact scores, by less than the tolerance.
        assert fit_hi[approx_winner] and fit_hi[exact_winner]
        assert 0 < approx[approx_winner] - approx[exact_winner] < SCORE_TOLERANCE
        exact = [ServerAccount(str(row), BAND_CLUSTER.server_configs()[row],
                               WINDOWS, ledger=ledger, row=row).packing_score(probe)
                 for row in (approx_winner, exact_winner)]
        assert exact[0] < exact[1]
        dense, tiered_decided = check_links(ledger, probe)
        assert dense == exact_winner
        assert tiered_decided
        assert ledger.best_fit_row(plan_demand, memory.guaranteed,
                                   memory.window_oversubscribed) == exact_winner


class TestTieredIndexDifferential:
    """PR 9: the band-descent candidate index."""

    def test_100k_server_place_matches_dense(self):
        # Smoke-scale version of the benchmark acceptance criterion: at
        # 100k servers placement flows through the tiered index.  Before
        # every place, each link must pick the dense pass's row on the same
        # ledger state, and place itself must commit to that row.
        cluster = build_scaled_bench_cluster(100_000)
        rng = np.random.default_rng(17)
        scheduler = ClusterScheduler(cluster, WINDOWS)
        assert scheduler.ledger.n_servers >= _TIERED_MIN_SERVERS
        counts = churn_checking_links(scheduler, rng, 60,
                                      disable_at=(20, 40))
        assert counts["disabled"] == 2
        assert counts["accepted"] == 60, \
            "a 100k-server fleet must absorb a 60-plan stream"
        assert counts["tiered_decided"] > 0
        _assert_caches_fresh(scheduler.ledger)

    def test_links_match_dense_on_a_thousand_servers(self):
        # Between the two thresholds placement runs the screened link, so
        # the tiered scan is checked here only through check_links; its
        # budget (an eighth of the fleet) lets it decide often at this size.
        rng = np.random.default_rng(29)
        scheduler = ClusterScheduler(build_scaled_bench_cluster(1000),
                                     WINDOWS)
        assert scheduler.ledger.n_servers < _TIERED_MIN_SERVERS
        counts = churn_checking_links(scheduler, rng, 1500,
                                      disable_at=(500, 1000))
        assert counts["disabled"] == 2
        assert counts["tiered_decided"] > 0
        _assert_caches_fresh(scheduler.ledger)

    def test_links_break_exact_ties_to_the_lowest_row(self):
        # Random plans never tie, so build ties: on a one-kind fleet each
        # 24-core plan needs a server of its own, which leaves rows 0-3
        # loaded identically, and a 2-core plan then scores exactly the same
        # on all four.  Every link must break the tie to row 0 like the dense
        # pass, then keep filling row 0 while it is the fullest that fits.
        cluster = ClusterConfig("TIE", "test",
                                (("gen4-intel", _SCREENED_MIN_SERVERS),))
        scheduler = ClusterScheduler(cluster, WINDOWS)
        n = WINDOWS.windows_per_day
        half = {r: np.full(n, 0.5) for r in ALL_RESOURCES}
        prediction = WindowUtilizationPrediction(
            windows=WINDOWS, percentile=half, maximum=half)

        def plan(vm_id, cores):
            allocation = {Resource.CPU: cores, Resource.MEMORY: 4.0 * cores,
                          Resource.NETWORK: 0.5 * cores,
                          Resource.SSD: 32.0 * cores}
            return plan_vm(vm_id, allocation, prediction, oversubscribe=False)

        rows = []
        for i, cores in enumerate([24.0] * 4 + [2.0] * 8):
            placing = plan(f"vm-{i}", cores)
            dense, _ = check_links(scheduler.ledger, placing)
            decision = scheduler.place(placing)
            assert scheduler.servers[decision.server_id]._row == dense
            rows.append(dense)
        assert rows == [0, 1, 2, 3] + [0] * 8

    def test_saturated_cluster_rejection_ordering_matches_reference_loop(self):
        # Pre-saturate the tiny cluster on both twins, then feed a stream
        # that is mostly rejections: the dense pass must reproduce the
        # exact interleaving of residual accepts and rejects, not just the
        # accept set.
        rng = np.random.default_rng(23)
        warm = [_random_plan(rng, f"warm-{i}") for i in range(20)]
        late = [_random_plan(rng, f"late-{i}") for i in range(120)]
        scheduler = ClusterScheduler(TINY_CLUSTER, WINDOWS)
        assert not scheduler.ledger.indexed
        reference = ReferenceLoopScheduler(TINY_CLUSTER, WINDOWS)
        for plan in warm:
            assert scheduler.place(plan) == reference.place(plan)

        expected = [reference.place(plan) for plan in late]
        actual = [scheduler.place(plan) for plan in late]
        assert actual == expected
        rejected = [d.vm_id for d in expected if not d.accepted]
        assert len(rejected) >= 60, "the stream must be rejection-dominated"
        assert any(d.accepted for d in expected), \
            "residual accepts must interleave with the rejections"
        assert np.array_equal(scheduler.ledger.demand,
                              _reference_demand(reference))

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

    def _indexed_account(self):
        """Row 0 of an indexed ledger, whose caches can be checked."""
        config = HARDWARE_GENERATIONS["gen4-intel"]
        ledger = ClusterLedger([config] * _SCREENED_MIN_SERVERS, WINDOWS)
        assert ledger.indexed
        return ServerAccount("s0", config, WINDOWS, ledger=ledger, row=0)

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
        account = self._indexed_account()
        rng = np.random.default_rng(4)
        account.commit(_random_plan(rng, "resident"))
        with pytest.raises(ValueError):
            account._ledger.release_row(account._row, _random_plan(rng, "x"))
        _assert_caches_fresh(account._ledger)

    def test_legitimate_float_drift_still_snaps_to_zero(self):
        account = self._indexed_account()
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
