"""Chunked streaming replay is bitwise identical to the dense meter.

The chunked mode of :class:`VectorizedViolationMeter` tiles the slot axis
into bounded ``(n_servers, chunk_slots)`` blocks to survive multi-week
traces; it must match the dense pass (and therefore the seed reference
loop) *exactly* -- same ViolationStats including per-server breakdowns --
for every chunk size, including chunks of one slot, chunk boundaries that
split VM demand segments, chunk widths that do not divide the evaluation
window, and evaluation windows starting mid-trace.
"""

from dataclasses import replace

import pytest

import repro.simulator.engine as engine
from repro.core.policy import COACH_POLICY
from repro.prediction.utilization_model import OracleUtilizationModel
from repro.simulator import SimulationConfig, simulate_policy
from repro.simulator.replay import ReferenceViolationMeter, VectorizedViolationMeter
from repro.simulator.synthetic import build_placed_replay_state
from repro.trace.hardware import ClusterConfig
from repro.trace.timeseries import TimeWindowConfig

WINDOWS = TimeWindowConfig(4)
N_SLOTS = 200

SMALL_CLUSTER = ClusterConfig("CQ", "test", (("gen4-intel", 4), ("gen6-amd", 2)))

#: Perfect-foresight predictions: the engine tests replay without training.
ORACLE = OracleUtilizationModel(COACH_POLICY.windows, COACH_POLICY.percentile)

#: Chunk widths swept by the differential tests: one-slot tiles, widths that
#: split every multi-slot demand segment, widths that do not divide N_SLOTS,
#: the exact window, and a chunk larger than the window (dense-equivalent).
CHUNK_SIZES = [1, 7, 32, 64, 128, N_SLOTS, N_SLOTS + 133]


def _random_placed_state(seed, n_vms=120):
    """Randomized scheduler + telemetry state (same shape as the meter
    equivalence tests): truncated series, stale plans, churn, lifetimes
    overrunning the window."""
    return build_placed_replay_state(
        SMALL_CLUSTER, WINDOWS, n_vms, N_SLOTS, seed=seed,
        lifetime_range=(5, 120), start_margin=10, max_end_overshoot=20,
        config_names=("D1_v5", "D2_v5", "D4_v5", "E2_v5"),
        util_max_range=(0.1, 0.9), util_pct_range=(0.05, 0.6),
        full_coverage_probability=0.6, stale_plan_probability=0.05,
        churn_probability=0.2)


class TestChunkedEquivalence:
    @pytest.mark.parametrize("chunk_slots", CHUNK_SIZES)
    def test_chunked_matches_dense_and_reference(self, chunk_slots):
        servers, placed = _random_placed_state(seed=3)
        reference = ReferenceViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        dense = VectorizedViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        chunked = VectorizedViolationMeter(chunk_slots=chunk_slots).measure(
            servers, placed, 0, N_SLOTS, 0.5)
        assert dense == reference
        assert chunked == dense
        assert reference.observed_server_slots > 0

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_randomized_workloads_across_chunk_sizes(self, seed):
        servers, placed = _random_placed_state(seed)
        dense = VectorizedViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        for chunk_slots in (1, 13, 50):
            chunked = VectorizedViolationMeter(chunk_slots=chunk_slots).measure(
                servers, placed, 0, N_SLOTS, 0.5)
            assert chunked == dense, f"chunk_slots={chunk_slots}"

    def test_chunk_boundaries_split_demand_segments(self):
        """With 32-slot chunks and lifetimes of 60..120 slots, *every* VM
        demand segment straddles at least one chunk boundary."""
        servers, placed = build_placed_replay_state(
            SMALL_CLUSTER, WINDOWS, 60, N_SLOTS, seed=5,
            lifetime_range=(60, 120), full_coverage_probability=1.0)
        assert placed, "workload must place VMs"
        assert all(vm.end_slot - vm.start_slot >= 60 for vm in placed.values())
        dense = VectorizedViolationMeter().measure(servers, placed, 0, N_SLOTS, 0.5)
        chunked = VectorizedViolationMeter(chunk_slots=32).measure(
            servers, placed, 0, N_SLOTS, 0.5)
        assert chunked == dense
        assert dense.observed_server_slots > 0

    @pytest.mark.parametrize("chunk_slots", [1, 17, 64])
    def test_evaluation_window_starting_mid_trace(self, chunk_slots):
        """Chunks are tiled from the window start, not slot zero."""
        servers, placed = _random_placed_state(seed=11)
        start = N_SLOTS // 3
        dense = VectorizedViolationMeter().measure(
            servers, placed, start, N_SLOTS, 0.5)
        chunked = VectorizedViolationMeter(chunk_slots=chunk_slots).measure(
            servers, placed, start, N_SLOTS, 0.5)
        assert chunked == dense
        assert any(vm.start_slot < start < vm.end_slot for vm in placed.values())

    def test_empty_window_and_empty_state(self):
        servers, placed = _random_placed_state(seed=2)
        meter = VectorizedViolationMeter(chunk_slots=16)
        assert meter.measure(servers, placed, N_SLOTS, N_SLOTS, 0.5) == \
            ReferenceViolationMeter().measure(servers, placed, N_SLOTS, N_SLOTS, 0.5)
        assert meter.measure(servers, {}, 0, N_SLOTS, 0.5).observed_server_slots == 0


class TestChunkedConfiguration:
    @pytest.mark.parametrize("bad", [0, -1, -288])
    def test_non_positive_chunk_rejected(self, bad):
        with pytest.raises(ValueError):
            VectorizedViolationMeter(chunk_slots=bad)

    def test_engine_fails_fast_on_bad_chunk_config(self, tiny_trace):
        """A bad tile width fails at config construction, before any model
        training or sweep worker spawn."""
        with pytest.raises(ValueError, match="replay_chunk_slots"):
            SimulationConfig(clusters=tiny_trace.cluster_ids()[:1],
                             replay_chunk_slots=0)

    def test_replaced_config_fails_fast_on_bad_chunk_config(self):
        """``dataclasses.replace`` re-runs the check, so a config derived
        from a valid one (as sweeps and benchmarks derive theirs) cannot
        carry a bad tile width into a replay either."""
        with pytest.raises(ValueError, match="replay_chunk_slots"):
            replace(SimulationConfig(replay_chunk_slots=24),
                    replay_chunk_slots=-1)

    def test_engine_replays_with_the_configured_chunk_width(self, tiny_trace,
                                                            monkeypatch):
        """``replay_chunk_slots`` reaches the meter the engine replays with;
        bitwise equality with the dense run cannot show that."""
        widths = []

        class RecordingMeter(VectorizedViolationMeter):
            def measure(self, *args, **kwargs):
                widths.append(self.chunk_slots)
                return super().measure(*args, **kwargs)

        monkeypatch.setattr(engine, "VectorizedViolationMeter", RecordingMeter)
        simulate_policy(tiny_trace, COACH_POLICY,
                        SimulationConfig(clusters=tiny_trace.cluster_ids()[:1],
                                         replay_chunk_slots=24),
                        prediction_model=ORACLE)
        assert widths == [24]


class TestEngineChunkedEquivalence:
    def test_simulate_policy_chunked_matches_dense(self, tiny_trace):
        """End to end: ``SimulationConfig.replay_chunk_slots`` changes peak
        memory, never the PolicyEvaluation."""
        cluster = tiny_trace.cluster_ids()[:1]
        dense = simulate_policy(
            tiny_trace, COACH_POLICY, SimulationConfig(clusters=cluster),
            prediction_model=ORACLE)
        for chunk_slots in (50, 288):
            chunked = simulate_policy(
                tiny_trace, COACH_POLICY,
                SimulationConfig(clusters=cluster,
                                 replay_chunk_slots=chunk_slots),
                prediction_model=ORACLE)
            assert chunked == dense, f"replay_chunk_slots={chunk_slots}"
        assert dense.violations.observed_server_slots > 0
