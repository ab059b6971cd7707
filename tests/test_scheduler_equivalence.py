"""Equivalence of the vectorized scheduler and the per-server reference loop.

The matrix-form :class:`ClusterScheduler` must reproduce the seed best-fit
logic decision for decision: same accept/reject sequence and the same server
for every accepted VM, across random workloads with interleaved departures.
These fleets are unindexed, so they pin the dense pass; the indexed links
are pinned against it in ``test_scheduler_incremental.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.resources import ALL_RESOURCES, Resource
from repro.core.scheduler import (
    _CAPACITY_FLOOR,
    _SCREENED_MIN_SERVERS,
    ClusterLedger,
    ClusterScheduler,
    ReferenceLoopScheduler,
    ServerAccount,
    plan_demand_matrix,
)
from repro.core.windows import plan_vm
from repro.prediction.utilization_model import WindowUtilizationPrediction
from repro.simulator.synthetic import build_scaled_bench_cluster
from repro.trace.hardware import HARDWARE_GENERATIONS, ClusterConfig
from repro.trace.timeseries import TimeWindowConfig

WINDOWS = TimeWindowConfig(4)

MIXED_CLUSTER = ClusterConfig(
    "EQ", "test", (("gen4-intel", 3), ("gen6-amd", 2), ("gen5-intel", 2)))


def random_plan(rng, vm_id, windows=WINDOWS, network=True):
    """A VM plan with random per-window utilization and random size."""
    n = windows.windows_per_day
    maximum = {r: rng.uniform(0.1, 1.0, n) for r in ALL_RESOURCES}
    percentile = {r: np.minimum(maximum[r], rng.uniform(0.05, 0.9, n))
                  for r in ALL_RESOURCES}
    prediction = WindowUtilizationPrediction(
        windows=windows, percentile=percentile, maximum=maximum)
    cores = float(rng.choice([1, 2, 2, 4, 4, 8, 16]))
    allocation = {Resource.CPU: cores,
                  Resource.MEMORY: cores * float(rng.choice([2, 4, 8])),
                  Resource.NETWORK: min(0.5 * cores, 16.0) if network else 0.0,
                  Resource.SSD: 32.0 * cores}
    return plan_vm(vm_id, allocation, prediction,
                   oversubscribe=bool(rng.random() < 0.7))


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_vectorized_matches_reference_loop(seed):
    """Same decisions on a random arrival/departure sequence."""
    rng = np.random.default_rng(seed)
    vectorized = ClusterScheduler(MIXED_CLUSTER, WINDOWS)
    reference = ReferenceLoopScheduler(MIXED_CLUSTER, WINDOWS)

    live = []
    accepted = rejected = 0
    for i in range(300):
        plan = random_plan(rng, f"vm-{i}")
        vec_decision = vectorized.place(plan)
        ref_decision = reference.place(plan)
        assert vec_decision.accepted == ref_decision.accepted, plan.vm_id
        assert vec_decision.server_id == ref_decision.server_id, plan.vm_id
        if vec_decision.accepted:
            accepted += 1
            live.append(plan.vm_id)
        else:
            rejected += 1
        # Interleave departures so both schedulers churn through commit and
        # release, not just a monotone fill.
        if live and rng.random() < 0.3:
            victim = live.pop(int(rng.integers(len(live))))
            vectorized.deallocate(victim)
            reference.deallocate(victim)

    # The workload must exercise both outcomes for the equivalence to mean much.
    assert accepted > 0 and rejected > 0
    assert vectorized.accepted_count() == accepted
    assert vectorized.rejected_count() == rejected
    # Final per-server occupancy agrees as well.
    for server_id, account in vectorized.servers.items():
        assert set(account.plans) == set(reference.servers[server_id].plans)


def test_vectorized_matches_reference_per_server_state():
    """After identical workloads, ledger rows equal the reference accounts."""
    rng = np.random.default_rng(99)
    vectorized = ClusterScheduler(MIXED_CLUSTER, WINDOWS)
    reference = ReferenceLoopScheduler(MIXED_CLUSTER, WINDOWS)
    for i in range(120):
        plan = random_plan(rng, f"vm-{i}")
        vectorized.place(plan)
        reference.place(plan)
    for server_id, account in vectorized.servers.items():
        ref_account = reference.servers[server_id]
        assert account.pa_memory_gb == pytest.approx(ref_account.pa_memory_gb)
        np.testing.assert_array_equal(account.va_window_demand,
                                      ref_account.va_window_demand)
        for resource in ALL_RESOURCES:
            np.testing.assert_array_equal(account.window_demand[resource],
                                          ref_account.window_demand[resource])


# ---------------------------------------------------------------------- #
# Class-aware admission (reserved preempts spot) -- differential twins
# ---------------------------------------------------------------------- #
from repro.trace.vm import AllocationClass  # noqa: E402

_CLASSES = (AllocationClass.RESERVED, AllocationClass.ON_DEMAND,
            AllocationClass.SPOT, AllocationClass.BURSTABLE)
_CLASS_PROBS = (0.3, 0.2, 0.4, 0.1)


def random_class(rng):
    return _CLASSES[int(rng.choice(len(_CLASSES), p=_CLASS_PROBS))]


@pytest.mark.parametrize("seed", [1, 11, 2025])
def test_class_aware_matches_reference_loop(seed):
    """Identical decisions AND identical eviction lists under preemption."""
    rng = np.random.default_rng(seed)
    vectorized = ClusterScheduler(MIXED_CLUSTER, WINDOWS)
    reference = ReferenceLoopScheduler(MIXED_CLUSTER, WINDOWS)

    live = []
    preemptions = 0
    rejected_with_evictions = 0
    for i in range(400):
        plan = random_plan(rng, f"vm-{i}")
        allocation_class = random_class(rng)
        vec = vectorized.place(plan, allocation_class=allocation_class)
        ref = reference.place(plan, allocation_class=allocation_class)
        assert vec.accepted == ref.accepted, plan.vm_id
        assert vec.server_id == ref.server_id, plan.vm_id
        # Preemption order is part of the contract: oldest surviving spot
        # VM first, re-searching after every eviction.
        assert vec.preempted == ref.preempted, plan.vm_id
        preemptions += len(vec.preempted)
        if not vec.accepted and vec.preempted:
            rejected_with_evictions += 1
        for victim in vec.preempted:
            if victim in live:
                live.remove(victim)
        if vec.accepted:
            live.append(plan.vm_id)
        if live and rng.random() < 0.25:
            victim = live.pop(int(rng.integers(len(live))))
            vectorized.deallocate(victim)
            reference.deallocate(victim)

    # The workload must actually exercise the preemption machinery.
    assert preemptions > 0
    for server_id, account in vectorized.servers.items():
        assert set(account.plans) == set(reference.servers[server_id].plans)


def test_reserved_rejection_keeps_evictions_in_order():
    """A reserved arrival too big for the cluster still evicts every spot
    VM (oldest first) before rejecting -- identically in both twins."""
    rng = np.random.default_rng(5)
    small = ClusterConfig("EQ1", "test", (("gen4-intel", 1),))
    vectorized = ClusterScheduler(small, WINDOWS)
    reference = ReferenceLoopScheduler(small, WINDOWS)

    spot_ids = []
    for i in range(100):
        plan = random_plan(rng, f"spot-{i}")
        vec = vectorized.place(plan, allocation_class=AllocationClass.SPOT)
        ref = reference.place(plan, allocation_class=AllocationClass.SPOT)
        assert vec.accepted == ref.accepted
        if vec.accepted:
            spot_ids.append(plan.vm_id)
    assert len(spot_ids) >= 2

    # An impossible reserved request: bigger than the whole server.
    n = WINDOWS.windows_per_day
    ones = {r: np.ones(n) for r in ALL_RESOURCES}
    prediction = WindowUtilizationPrediction(
        windows=WINDOWS, percentile=ones, maximum=ones)
    huge = plan_vm("huge", {Resource.CPU: 4096.0, Resource.MEMORY: 65536.0,
                            Resource.NETWORK: 1000.0, Resource.SSD: 1e6},
                   prediction, oversubscribe=False)
    vec = vectorized.place(huge, allocation_class=AllocationClass.RESERVED)
    ref = reference.place(huge, allocation_class=AllocationClass.RESERVED)
    assert not vec.accepted and not ref.accepted
    # Evictions stand on rejection, in acceptance (FIFO) order.
    assert vec.preempted == tuple(spot_ids)
    assert ref.preempted == tuple(spot_ids)
    assert vectorized.servers_in_use() == 0


def test_class_aware_flag_without_class_is_class_blind():
    """Classes that neither preempt nor get preempted place exactly like
    place() without a class, rejections included."""
    rng = np.random.default_rng(17)
    plans = [random_plan(rng, f"vm-{i}") for i in range(150)]
    blind = ClusterScheduler(MIXED_CLUSTER, WINDOWS)
    classed = {allocation_class: ClusterScheduler(MIXED_CLUSTER, WINDOWS)
               for allocation_class in (AllocationClass.ON_DEMAND,
                                        AllocationClass.BURSTABLE)}
    rejected = 0
    for plan in plans:
        expected = blind.place(plan)
        rejected += not expected.accepted
        for allocation_class, scheduler in classed.items():
            actual = scheduler.place(plan, allocation_class=allocation_class)
            assert (actual.accepted, actual.server_id, actual.preempted) == \
                (expected.accepted, expected.server_id, expected.preempted)
    assert rejected > 0
    for scheduler in classed.values():
        assert np.array_equal(scheduler.ledger.demand, blind.ledger.demand)


# ---------------------------------------------------------------------- #
# Failure injection (disable_server) -- differential twins
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [3, 42])
def test_drain_during_saturation_matches_reference_loop(seed):
    """Disabling servers mid-churn (with forced re-placement of their
    residents) keeps the vectorized scheduler decision-identical."""
    rng = np.random.default_rng(seed)
    vectorized = ClusterScheduler(MIXED_CLUSTER, WINDOWS)
    reference = ReferenceLoopScheduler(MIXED_CLUSTER, WINDOWS)
    server_ids = list(vectorized.servers)

    plans = {}
    residents = {server_id: [] for server_id in server_ids}
    disabled = []
    redirected = 0
    for i in range(300):
        plan = random_plan(rng, f"vm-{i}")
        plans[plan.vm_id] = plan
        vec = vectorized.place(plan)
        ref = reference.place(plan)
        assert (vec.accepted, vec.server_id) == (ref.accepted, ref.server_id)
        if vec.accepted:
            assert vec.server_id not in disabled
            if disabled:
                redirected += 1
            residents[vec.server_id].append(plan.vm_id)
        # Interleaved departures keep capacity churning so evacuees and
        # post-drain arrivals have somewhere to land.
        if rng.random() < 0.25:
            alive = [vm_id for ids in residents.values() for vm_id in ids]
            if alive:
                victim = alive[int(rng.integers(len(alive)))]
                vectorized.deallocate(victim)
                reference.deallocate(victim)
                for ids in residents.values():
                    if victim in ids:
                        ids.remove(victim)
                        break
        if i in (120, 200) and len(disabled) < len(server_ids) - 1:
            # Drain: evacuate residents, disable, re-place the evacuees
            # through normal admission -- mirrored on both schedulers.
            victim_server = server_ids[len(disabled)]
            evacuees = residents.pop(victim_server)
            for vm_id in evacuees:
                vectorized.deallocate(vm_id)
                reference.deallocate(vm_id)
            vectorized.disable_server(victim_server)
            reference.disable_server(victim_server)
            disabled.append(victim_server)
            for vm_id in evacuees:
                vec = vectorized.place(plans[vm_id])
                ref = reference.place(plans[vm_id])
                assert (vec.accepted, vec.server_id) == \
                    (ref.accepted, ref.server_id)
                if vec.accepted:
                    assert vec.server_id not in disabled
                    residents[vec.server_id].append(vm_id)
                    redirected += 1

    assert disabled and redirected > 0
    for server_id in disabled:
        assert len(vectorized.servers[server_id].plans) == 0
    for server_id, account in vectorized.servers.items():
        assert set(account.plans) == set(reference.servers[server_id].plans)


@pytest.mark.parametrize(
    "cluster", [MIXED_CLUSTER, build_scaled_bench_cluster(_SCREENED_MIN_SERVERS)],
    ids=["unindexed", "indexed"])
def test_disabled_server_never_wins(cluster):
    """An empty disabled server is skipped by every best-fit path."""
    rng = np.random.default_rng(8)
    scheduler = ClusterScheduler(cluster, WINDOWS)
    assert scheduler.ledger.indexed == (cluster is not MIXED_CLUSTER)
    target = next(iter(scheduler.servers))
    scheduler.disable_server(target)
    for i in range(60):
        decision = scheduler.place(random_plan(rng, f"vm-{i}"))
        if decision.accepted:
            assert decision.server_id != target
    assert len(scheduler.servers[target].plans) == 0


# ---------------------------------------------------------------------- #
# Degenerate capacities -- the dense pass at any fleet size
# ---------------------------------------------------------------------- #
def test_degenerate_capacity_ledger_decides_like_scalar_loop():
    """A positive capacity under the screen's floor keeps a ledger of any
    size unindexed, and its decisions are the scalar per-server rule's."""
    generations = [config for _, config in sorted(HARDWARE_GENERATIONS.items())]
    configs = [generations[i % len(generations)]
               for i in range(_SCREENED_MIN_SERVERS)]
    degenerate = 0
    configs[degenerate] = replace(configs[degenerate],
                                  network_gbps=_CAPACITY_FLOOR / 2)
    ledger = ClusterLedger(configs, WINDOWS)
    assert not ledger.indexed
    accounts = [ServerAccount(f"s{i}", config, WINDOWS, ledger=ledger, row=i)
                for i, config in enumerate(configs)]
    scalar = [ServerAccount(f"s{i}", config, WINDOWS)
              for i, config in enumerate(configs)]

    rng = np.random.default_rng(13)
    live = []
    degenerate_wins = 0
    for i in range(150):
        # Every third plan asks for no network, so it fits the server whose
        # network capacity is degenerate.
        plan = random_plan(rng, f"vm-{i}", network=i % 3 != 0)
        memory_plan = plan.plans[Resource.MEMORY]
        row = ledger.best_fit_row(plan_demand_matrix(plan),
                                  memory_plan.guaranteed,
                                  memory_plan.window_oversubscribed)
        expected, best_score = -1, -1.0
        for index, account in enumerate(scalar):
            if account.can_fit(plan):
                score = account.packing_score(plan)
                if score > best_score:
                    expected, best_score = index, score
        assert row == expected, plan.vm_id
        if row < 0:
            continue
        degenerate_wins += row == degenerate
        accounts[row].commit(plan)
        scalar[row].commit(plan)
        live.append((row, plan.vm_id))
        if rng.random() < 0.3:
            row, vm_id = live.pop(int(rng.integers(len(live))))
            accounts[row].release(vm_id)
            scalar[row].release(vm_id)
    assert degenerate_wins > 0, "the degenerate server must win placements"
