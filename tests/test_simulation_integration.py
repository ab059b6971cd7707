"""Integration tests: cluster-scale simulation, experiments, and overheads."""

import numpy as np
import pytest

from repro.core.policy import (
    COACH_POLICY,
    NO_OVERSUBSCRIPTION_POLICY,
    SINGLE_RATE_POLICY,
)
from repro.experiments import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.figures import (
    figure17_oversub_accesses,
    figure19_prediction_accuracy,
)
from repro.experiments.overheads import (
    local_predictor_overheads,
    mitigation_bandwidths,
    scheduling_overheads,
    training_overheads,
)
from repro.core.resources import ALL_RESOURCES
from repro.prediction.contention import TwoLevelContentionPredictor
from repro.prediction.utilization_model import NoOversubscriptionModel
from repro.simulator import (
    FailureEvent,
    SimulationConfig,
    simulate_policy,
    sweep_policies,
)
from repro.simulator import engine
from repro.simulator.engine import ClusterSimulation
from repro.trace.hardware import ClusterConfig, Fleet
from repro.trace.store import TraceStore, TraceStoreBuilder
from repro.trace.timeseries import SLOTS_PER_DAY
from repro.trace.timeseries import UtilizationSeries
from repro.trace.trace import Trace
from repro.trace.vm import VM_CATALOG, VMRecord


@pytest.fixture(scope="module")
def sim_config(small_trace):
    cluster = small_trace.cluster_ids()[0]
    return SimulationConfig(clusters=[cluster], n_estimators=3)


class TestClusterSimulation:
    def test_single_policy_run(self, small_trace, sim_config):
        result = simulate_policy(small_trace, NO_OVERSUBSCRIPTION_POLICY, sim_config)
        assert result.requested_vms > 0
        assert 0 <= result.accepted_vms <= result.requested_vms
        assert result.accepted_vms + result.rejected_vms == result.requested_vms
        assert result.average_concurrent_cores >= 0

    def test_oversubscription_hosts_at_least_as_much(self, small_trace, sim_config):
        results = sweep_policies(
            small_trace,
            {"none": NO_OVERSUBSCRIPTION_POLICY, "coach": COACH_POLICY},
            sim_config)
        assert results["coach"].average_concurrent_cores >= (
            results["none"].average_concurrent_cores - 1e-6)
        assert results["none"].additional_capacity_pct == pytest.approx(0.0)
        assert results["coach"].additional_capacity_pct >= -1e-9

    def test_violation_fractions_bounded(self, small_trace, sim_config):
        result = simulate_policy(small_trace, SINGLE_RATE_POLICY, sim_config)
        assert 0.0 <= result.violations.cpu_violation_fraction <= 1.0
        assert 0.0 <= result.violations.memory_violation_fraction <= 1.0

    def test_none_policy_has_no_memory_violations(self, small_trace, sim_config):
        """Without oversubscription, committed backing equals the request, so
        actual demand can never exceed it."""
        result = simulate_policy(small_trace, NO_OVERSUBSCRIPTION_POLICY, sim_config)
        assert result.violations.memory_violation_fraction == pytest.approx(0.0)


class TestTruncatedSeriesReplay:
    FLEET = Fleet(clusters=[ClusterConfig("T1", "test", (("gen4-intel", 1),))])

    @staticmethod
    def _truncated_vm() -> VMRecord:
        """A VM whose telemetry stops halfway through its lifetime (40 of
        its 80 slots)."""
        vm = VMRecord("vm-trunc", "sub-0", VM_CATALOG["D4_v5"], "T1",
                      start_slot=10, end_slot=90)
        truncated = UtilizationSeries(np.full(40, 0.5), start_slot=10)
        vm.utilization = {r: truncated for r in ALL_RESOURCES}
        return vm

    def test_series_shorter_than_lifetime_does_not_crash_violation_replay(self):
        """A VM whose telemetry covers only part of ``[start_slot, end_slot)``
        must not break the contention replay with a broadcast-shape mismatch;
        the uncovered slots simply contribute no demand."""
        fleet = self.FLEET
        trace = Trace(vms=[self._truncated_vm()], fleet=fleet, n_slots=100)

        policy = NO_OVERSUBSCRIPTION_POLICY
        sim = ClusterSimulation(trace, "T1", policy,
                                NoOversubscriptionModel(policy.windows),
                                SimulationConfig(clusters=["T1"]))
        result = sim.run()
        assert "vm-trunc" in result.placed_vms
        # Occupancy still spans the whole lifetime, telemetry or not.
        assert result.violations.observed_server_slots == 80
        assert result.violations.cpu_violation_fraction == pytest.approx(0.0)
        assert result.violations.memory_violation_fraction == pytest.approx(0.0)

    def test_truncated_series_survives_a_store_on_disk(self, tmp_path):
        """The row rules take telemetry holding *at most* the lifetime's
        samples: a truncated row goes through the builder, a memory-mapped
        open and the row views intact."""
        with TraceStoreBuilder(tmp_path / "store", fleet=self.FLEET,
                               n_slots=100) as builder:
            builder.append(self._truncated_vm())
        trace = TraceStore.open(tmp_path / "store", mmap=True).as_trace()
        view, = trace.vms
        assert (view.vm_id, view.cluster_id, view.start_slot,
                view.end_slot) == ("vm-trunc", "T1", 10, 90)
        assert view.utilization.keys() == set(ALL_RESOURCES)
        for series in view.utilization.values():
            assert series.start_slot == 10
            np.testing.assert_array_equal(series.values, np.full(40, 0.5))


class TestFailureInjection:
    """Injected drains/crashes end-to-end through :class:`ClusterSimulation`."""

    @staticmethod
    def _run(trace, cluster_id, config):
        policy = NO_OVERSUBSCRIPTION_POLICY
        sim = ClusterSimulation(trace, cluster_id, policy,
                                NoOversubscriptionModel(policy.windows), config)
        return sim, sim.run()

    def test_drain_empties_server_and_reroutes_residents(self, small_trace):
        cluster_id = small_trace.cluster_ids()[0]
        drain = FailureEvent(slot=10 * SLOTS_PER_DAY, cluster_id=cluster_id,
                             server_index=0, kind="drain")
        config = SimulationConfig(clusters=[cluster_id],
                                  failure_events=(drain,))
        sim, result = self._run(small_trace, cluster_id, config)
        drained_server = f"{cluster_id}-s000"
        assert len(sim.manager.scheduler.servers[drained_server].plans) == 0
        # The drain actually had residents to evacuate on this trace.
        assert sim.evacuated > 0
        assert sim.crashed_vms == 0
        # Surviving placements all sit on still-enabled servers.
        ledger = sim.manager.scheduler.ledger
        for server_id, account in sim.manager.scheduler.servers.items():
            if account.plans:
                row = sim.manager.scheduler.servers[server_id]._row
                assert ledger.row_available[row]

    def test_crash_drops_residents_from_replay(self, small_trace):
        cluster_id = small_trace.cluster_ids()[0]
        crash = FailureEvent(slot=10 * SLOTS_PER_DAY, cluster_id=cluster_id,
                             server_index=0, kind="crash")
        config = SimulationConfig(clusters=[cluster_id],
                                  failure_events=(crash,))
        sim, result = self._run(small_trace, cluster_id, config)
        crashed_server = f"{cluster_id}-s000"
        assert len(sim.manager.scheduler.servers[crashed_server].plans) == 0
        assert sim.crashed_vms > 0
        # Crash victims vanish from the replay set entirely.
        baseline_config = SimulationConfig(clusters=[cluster_id])
        _, baseline = self._run(small_trace, cluster_id, baseline_config)
        assert len(result.placed_vms) == (len(baseline.placed_vms)
                                          - sim.crashed_vms)
        # Lost occupancy shows up as fewer observed server-slots.
        assert (result.violations.observed_server_slots
                < baseline.violations.observed_server_slots)

    def test_empty_failure_list_is_bitwise_baseline(self, small_trace):
        cluster_id = small_trace.cluster_ids()[0]
        _, with_empty = self._run(
            small_trace, cluster_id,
            SimulationConfig(clusters=[cluster_id], failure_events=()))
        _, baseline = self._run(
            small_trace, cluster_id, SimulationConfig(clusters=[cluster_id]))
        assert set(with_empty.placed_vms) == set(baseline.placed_vms)
        assert with_empty.violations == baseline.violations

    def test_failures_leave_no_negative_ledger_residue(self, small_trace):
        cluster_id = small_trace.cluster_ids()[0]
        events = (
            FailureEvent(8 * SLOTS_PER_DAY, cluster_id, 0, "drain"),
            FailureEvent(9 * SLOTS_PER_DAY, cluster_id, 1, "crash"),
            FailureEvent(11 * SLOTS_PER_DAY, cluster_id, 2, "drain"),
        )
        config = SimulationConfig(clusters=[cluster_id], failure_events=events)
        sim, _ = self._run(small_trace, cluster_id, config)
        ledger = sim.manager.scheduler.ledger
        assert float(ledger.demand.min(initial=0.0)) >= 0.0
        assert float(ledger.pa_memory.min(initial=0.0)) >= 0.0
        assert float(ledger.va_demand.min(initial=0.0)) >= 0.0

    def test_failure_run_is_deterministic(self, small_trace):
        cluster_id = small_trace.cluster_ids()[0]
        events = (FailureEvent(8 * SLOTS_PER_DAY, cluster_id, 0, "drain"),
                  FailureEvent(8 * SLOTS_PER_DAY, cluster_id, 1, "crash"))
        config = SimulationConfig(clusters=[cluster_id], failure_events=events)
        sim_a, run_a = self._run(small_trace, cluster_id, config)
        sim_b, run_b = self._run(small_trace, cluster_id, config)
        assert set(run_a.placed_vms) == set(run_b.placed_vms)
        assert run_a.violations == run_b.violations
        assert (sim_a.evacuated, sim_a.crashed_vms, sim_a.preempted) == \
            (sim_b.evacuated, sim_b.crashed_vms, sim_b.preempted)

    def test_unknown_failure_kind_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(slot=0, cluster_id="C", server_index=0, kind="flood")

    def test_negative_server_index_rejected(self):
        with pytest.raises(ValueError, match="server_index"):
            FailureEvent(slot=0, cluster_id="C", server_index=-1)

    @pytest.mark.parametrize("entry", ["cluster-simulation", "simulate-policy",
                                       "simulate-policy-untrained"])
    @pytest.mark.parametrize("where", ["unknown-cluster", "index-past-cluster",
                                       "unknown-clusters-entry"])
    def test_failure_outside_the_fleet_fails_before_replay(
            self, small_trace, monkeypatch, where, entry):
        """A failure or a ``clusters`` entry naming a cluster or server the
        fleet lacks is rejected by name before any model trains or cluster
        replays, instead of being dropped or raising a bare KeyError after
        earlier clusters replayed."""
        first, last = small_trace.fleet.clusters[0], small_trace.fleet.clusters[-1]
        if where == "unknown-clusters-entry":
            config = SimulationConfig(clusters=[first.cluster_id, "no-such-cluster"])
            culprits = ["'no-such-cluster'", str(small_trace.cluster_ids())]
        else:
            if where == "unknown-cluster":
                event = FailureEvent(SLOTS_PER_DAY, "no-such-cluster", 0)
            else:
                event = FailureEvent(SLOTS_PER_DAY, last.cluster_id,
                                     last.server_count)
            config = SimulationConfig(failure_events=(event,))
            culprits = [str(event)]
        replayed, trained = [], []
        run = ClusterSimulation.run
        monkeypatch.setattr(ClusterSimulation, "run",
                            lambda sim: replayed.append(sim) or run(sim))
        build = engine.build_prediction_model
        monkeypatch.setattr(engine, "build_prediction_model",
                            lambda *args, **kwargs: trained.append(args)
                            or build(*args, **kwargs))
        policy = NO_OVERSUBSCRIPTION_POLICY
        model = NoOversubscriptionModel(policy.windows)
        with pytest.raises(ValueError) as info:
            if entry == "cluster-simulation":
                ClusterSimulation(small_trace, first.cluster_id, policy,
                                  model, config)
            elif entry == "simulate-policy":
                simulate_policy(small_trace, policy, config, model)
            else:
                simulate_policy(small_trace, policy, config)
        for culprit in culprits:
            assert culprit in str(info.value)
        assert replayed == []
        assert trained == []


class TestExperimentsRegistry:
    def test_all_expected_experiments_registered(self):
        expected = {f"figure{i:02d}" for i in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                               15, 17, 18, 19, 20, 21)}
        expected.add("section4.5")
        assert expected == set(list_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_trace_free_experiments_run(self):
        assert EXPERIMENTS["figure15"].run()
        assert EXPERIMENTS["figure18"].run()

    def test_characterization_experiments_run_on_fixture(self, small_trace):
        for experiment_id in ("figure02", "figure03", "figure06", "figure08",
                              "figure10", "figure11", "figure12"):
            assert EXPERIMENTS[experiment_id].run(small_trace)


class TestFigure17:
    def test_higher_percentile_reduces_oversub_accesses(self, small_trace):
        result = figure17_oversub_accesses(small_trace, percentiles=(75, 95),
                                           window_hours_sweep=(4,))
        table = result["mean_oversub_access_pct"][4]
        assert table[95] <= table[75] + 1e-9

    def test_oversub_accesses_below_worst_case(self, small_trace):
        result = figure17_oversub_accesses(small_trace, percentiles=(80,),
                                           window_hours_sweep=(4,))
        assert result["mean_oversub_access_pct"][4][80] <= result["worst_case_pct"][80.0]

    def test_cdf_present_for_4hr(self, small_trace):
        result = figure17_oversub_accesses(small_trace, percentiles=(90,),
                                           window_hours_sweep=(4,))
        assert 90 in result["cdf_4hr_pct"]
        assert result["cdf_4hr_pct"][90] == sorted(result["cdf_4hr_pct"][90])


class TestFigure19:
    def test_prediction_accuracy_structure(self, small_trace):
        rows = figure19_prediction_accuracy(small_trace, percentiles=(95.0, 85.0),
                                            n_estimators=3, max_eval_vms=40)
        assert len(rows) == 4  # 2 percentiles x 2 resources
        for row in rows:
            assert 0.0 <= row.under_allocation_pct <= 100.0
            assert row.over_allocation_error_pct >= 0.0

    def test_lower_percentile_reduces_over_allocation(self, small_trace):
        rows = figure19_prediction_accuracy(small_trace, percentiles=(95.0, 85.0),
                                            n_estimators=3, max_eval_vms=40)
        by_key = {(r.resource, r.percentile): r for r in rows}
        assert (by_key[("memory", 85.0)].over_allocation_error_pct
                <= by_key[("memory", 95.0)].over_allocation_error_pct + 15.0)


class TestOverheads:
    def test_training_overheads(self, tiny_trace):
        report = training_overheads(tiny_trace, n_estimators=3)
        assert report["n_training_vms"] > 0
        assert report["training_seconds"] > 0
        assert report["model_size_mb"] > 0

    def test_scheduling_overhead_small(self, tiny_trace):
        report = scheduling_overheads(tiny_trace, cluster_id=tiny_trace.cluster_ids()[0],
                                      max_vms=30)
        assert report["coach_ms_per_vm"] < 100.0
        assert "added_ms_per_vm" in report

    def test_local_predictor_footprint(self):
        report = local_predictor_overheads(samples=120)
        assert report["model_memory_kb"] < 64.0
        assert report["train_infer_cycle_ms"] > 0

    def test_mitigation_bandwidths_match_paper(self):
        bandwidths = mitigation_bandwidths()
        assert bandwidths["trim_bandwidth_gbps"] == pytest.approx(1.1)
        assert bandwidths["extend_bandwidth_gbps"] == pytest.approx(15.7)


class TestContentionPredictor:
    def test_two_level_forecast(self):
        predictor = TwoLevelContentionPredictor(samples_per_window=5, warmup_windows=2)
        rng = np.random.default_rng(0)
        for i in range(60):
            predictor.observe(float(np.clip(0.4 + 0.2 * np.sin(i / 5)
                                            + rng.normal(0, 0.01), 0, 1)))
        forecast = predictor.forecast()
        assert 0.0 <= forecast.short_term <= 1.0
        assert predictor.lstm_ready
        assert forecast.long_term is not None
        assert 0.0 <= forecast.long_term <= 1.0

    def test_exceeds_threshold(self):
        predictor = TwoLevelContentionPredictor(samples_per_window=5, warmup_windows=100)
        for _ in range(10):
            predictor.observe(0.95)
        assert predictor.forecast().exceeds(0.9)
        assert not predictor.forecast().exceeds(0.99)

    def test_ewma_error_evaluation(self):
        series = np.clip(0.5 + np.random.default_rng(1).normal(0, 0.02, 200), 0, 1)
        error = TwoLevelContentionPredictor.evaluate_ewma_error(series)
        assert error < 0.05
