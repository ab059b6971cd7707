"""Equivalence of the vectorized violation replay and the seed loop.

The dense :class:`VectorizedViolationMeter` must reproduce the seed
per-server replay (:class:`ReferenceViolationMeter`) *exactly* -- identical
``ViolationStats`` including the per-server breakdowns -- across randomized
workloads with truncated telemetry, VMs straddling the start of the
evaluation period, empty servers, and stale plan entries.
"""

import pytest

from repro.core.policy import COACH_POLICY
from repro.core.scheduler import ClusterScheduler
from repro.prediction.utilization_model import OracleUtilizationModel
from repro.simulator import ClusterSimulation, SimulationConfig, ViolationStats
from repro.simulator.engine import CPU_CONTENTION_FRACTION
from repro.simulator.replay import ReferenceViolationMeter, VectorizedViolationMeter
from repro.simulator.synthetic import build_placed_replay_state
from repro.trace.hardware import ClusterConfig
from repro.trace.timeseries import TimeWindowConfig

WINDOWS = TimeWindowConfig(4)
N_SLOTS = 200

SMALL_CLUSTER = ClusterConfig("VQ", "test", (("gen4-intel", 4), ("gen6-amd", 2)))


def _random_placed_state(seed, n_vms=120):
    """Randomized scheduler + telemetry state for the differential tests.

    The workload deliberately includes: series covering only part of the
    lifetime (truncated telemetry), lifetimes overrunning the evaluation
    window, committed plans whose VM never lands in ``placed`` (stale
    entries), interleaved deallocations, and servers without any plans
    (the cluster is never filled).
    """
    return build_placed_replay_state(
        SMALL_CLUSTER, WINDOWS, n_vms, N_SLOTS, seed=seed,
        lifetime_range=(5, 120), start_margin=10, max_end_overshoot=20,
        config_names=("D1_v5", "D2_v5", "D4_v5", "E2_v5"),
        util_max_range=(0.1, 0.9), util_pct_range=(0.05, 0.6),
        full_coverage_probability=0.6, stale_plan_probability=0.05,
        churn_probability=0.2)


class TestMeterEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_randomized_traces_produce_identical_stats(self, seed):
        servers, placed = _random_placed_state(seed)
        reference = ReferenceViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        vectorized = VectorizedViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        # Exact dataclass equality: fractions, totals, and per-server counts.
        assert vectorized == reference
        assert reference.observed_server_slots > 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_vms_straddling_placement_start(self, seed):
        """Evaluation starting mid-trace clamps lifetimes and series alike."""
        servers, placed = _random_placed_state(seed)
        start = N_SLOTS // 3
        reference = ReferenceViolationMeter().measure(servers, placed, start, N_SLOTS, 0.5)
        vectorized = VectorizedViolationMeter().measure(servers, placed, start, N_SLOTS, 0.5)
        assert vectorized == reference
        # The workload must actually contain straddlers for this to bite.
        assert any(vm.start_slot < start < vm.end_slot for vm in placed.values())

    def test_empty_state(self):
        servers = list(ClusterScheduler(SMALL_CLUSTER, WINDOWS).servers.values())
        reference = ReferenceViolationMeter().measure(servers, {}, 0, N_SLOTS, 0.5)
        vectorized = VectorizedViolationMeter().measure(servers, {}, 0, N_SLOTS, 0.5)
        assert vectorized == reference
        assert reference.observed_server_slots == 0
        assert reference.per_server_observed == {}

    def test_empty_evaluation_window(self):
        servers, placed = _random_placed_state(5)
        reference = ReferenceViolationMeter().measure(servers, placed, N_SLOTS, N_SLOTS, 0.5)
        vectorized = VectorizedViolationMeter().measure(servers, placed, N_SLOTS, N_SLOTS, 0.5)
        assert vectorized == reference
        assert reference.observed_server_slots == 0

    def test_per_server_totals_are_consistent(self):
        servers, placed = _random_placed_state(9)
        stats = VectorizedViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        assert sum(stats.per_server_observed.values()) == stats.observed_server_slots
        assert sum(stats.per_server_cpu_violations.values()) == stats.cpu_violation_slots
        assert sum(stats.per_server_memory_violations.values()) == stats.memory_violation_slots
        for server_id, observed in stats.per_server_observed.items():
            assert stats.per_server_cpu_violations[server_id] <= observed
            assert stats.per_server_memory_violations[server_id] <= observed

    def test_merge_rejects_duplicate_server_ids(self):
        """Merging the same cluster twice must fail loudly, not drop counts."""
        part = ViolationStats.from_counts({"C1-s000": 10}, {"C1-s000": 2},
                                          {"C1-s000": 0})
        with pytest.raises(ValueError):
            ViolationStats.merge([part, part])


class TestEngineEquivalence:
    def test_full_simulation_matches_across_meters(self, small_trace):
        """End to end: the state one cluster simulation placed on a real
        trace measures the same with the engine's meter and the seed loop."""
        cluster = small_trace.cluster_ids()[0]
        config = SimulationConfig(clusters=[cluster])
        model = OracleUtilizationModel(COACH_POLICY.windows,
                                       COACH_POLICY.percentile)
        simulation = ClusterSimulation(small_trace, cluster, COACH_POLICY, model,
                                       config)
        vectorized = simulation.run().violations
        reference = ReferenceViolationMeter().measure(
            simulation.manager.scheduler.servers.values(), simulation.placed,
            config.placement_start_slot, small_trace.n_slots,
            CPU_CONTENTION_FRACTION)
        assert vectorized == reference
        assert vectorized.observed_server_slots > 0

