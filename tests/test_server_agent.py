"""Tests for monitoring, mitigation, the server memory model, and the agent."""

import pytest

from repro.core.mitigation import (
    MITIGATION_POLICIES,
    MitigationAction,
    MitigationEngine,
    mitigation_policy,
)
from repro.core.monitoring import (
    MonitoringComponent,
    ServerSample,
)
from repro.core.resources import Resource
from repro.core.server_manager import OversubscriptionAgent
from repro.simulator.memory import ServerMemoryModel
from repro.workloads.runner import _static_coachvm


def sample(time_s=0.0, cpu=0.3, wait=0.0, demand=10.0, capacity=32.0,
           pool=6.0, available=3.0, faults=0.0):
    return ServerSample(time_seconds=time_s, cpu_utilization=cpu,
                        cpu_wait_fraction=wait, memory_demand_gb=demand,
                        memory_capacity_gb=capacity, oversub_pool_gb=pool,
                        oversub_available_gb=available, page_fault_gb=faults)


class TestMonitoring:
    def test_quiet_sample_raises_no_signal(self):
        monitor = MonitoringComponent()
        assert monitor.observe(sample()) == []

    def test_cpu_contention_detection(self):
        monitor = MonitoringComponent()
        signals = monitor.observe(sample(cpu=0.6, wait=0.01))
        assert any(s.resource is Resource.CPU for s in signals)

    def test_cpu_wait_alone_not_enough(self):
        """Wait time only counts when utilization is above the floor."""
        monitor = MonitoringComponent()
        signals = monitor.observe(sample(cpu=0.05, wait=0.01))
        assert not any(s.resource is Resource.CPU for s in signals)

    def test_memory_pool_exhaustion_detection(self):
        monitor = MonitoringComponent()
        signals = monitor.observe(sample(available=0.2))
        assert any(s.resource is Resource.MEMORY for s in signals)

    def test_page_fault_detection(self):
        monitor = MonitoringComponent()
        signals = monitor.observe(sample(available=5.0, faults=0.5))
        assert any(s.resource is Resource.MEMORY for s in signals)

    def test_history_is_bounded(self):
        monitor = MonitoringComponent(max_history=10)
        for i in range(25):
            monitor.observe(sample(time_s=i))
        assert len(monitor.history) == 10

    def test_summary(self):
        monitor = MonitoringComponent()
        monitor.observe(sample())
        summary = monitor.summary()
        assert summary["samples"] == 1.0


def build_server(pool_gb=6.0):
    """A 32 GB server hosting the Figure 21 trio of CoachVMs."""
    memory = ServerMemoryModel(capacity_gb=32.0, host_reserved_gb=2.0,
                               oversub_pool_gb=pool_gb)
    memory.add_vm(_static_coachvm("cache", 8.0, 3.0))
    memory.add_vm(_static_coachvm("kvstore", 8.0, 3.0))
    memory.add_vm(_static_coachvm("videoconf", 8.0, 1.0))
    return memory


class TestServerMemoryModel:
    def test_capacity_accounting(self):
        memory = build_server()
        assert memory.pa_allocated_gb == pytest.approx(7.0)
        assert memory.unallocated_gb() == pytest.approx(32 - 2 - 7 - 6)
        assert memory.oversub_available_gb == pytest.approx(6.0)

    def test_demand_within_pa_causes_no_faults(self):
        memory = build_server()
        outcome = memory.apply_demands({"cache": 2.0, "kvstore": 2.0, "videoconf": 1.0}, 20.0)
        assert outcome.page_fault_gb == 0.0
        assert memory.oversub_used_gb == 0.0

    def test_spill_consumes_pool_then_faults(self):
        memory = build_server(pool_gb=2.0)
        outcome = memory.apply_demands({"cache": 6.0, "kvstore": 6.0, "videoconf": 1.0}, 20.0)
        # Each of cache/kvstore spills 3 GB beyond PA; only 2 GB pool available.
        assert memory.oversub_used_gb == pytest.approx(2.0)
        assert outcome.unbacked_gb == pytest.approx(4.0)
        assert outcome.page_fault_gb > 0

    def test_trim_frees_pool(self):
        memory = build_server(pool_gb=3.0)
        memory.apply_demands({"cache": 6.0, "kvstore": 3.0, "videoconf": 1.0}, 20.0)
        # Cache backed 3 GB; demand drops, making memory cold and trimmable.
        memory.apply_demands({"cache": 3.0, "kvstore": 3.0, "videoconf": 1.0}, 20.0)
        assert memory.trimmable_gb() > 0
        before = memory.oversub_available_gb
        freed = memory.trim_cold_memory(1.0)
        assert freed > 0
        assert memory.oversub_available_gb == pytest.approx(before + freed)

    def test_extend_pool_bounded_by_unallocated(self):
        memory = build_server()
        unallocated = memory.unallocated_gb()
        added = memory.extend_pool(unallocated + 100.0)
        assert added == pytest.approx(unallocated)
        assert memory.unallocated_gb() == pytest.approx(0.0)

    def test_pa_must_fit_unallocated(self):
        memory = ServerMemoryModel(capacity_gb=16.0, host_reserved_gb=2.0,
                                   oversub_pool_gb=4.0)
        with pytest.raises(ValueError):
            memory.add_vm(_static_coachvm("big", 32.0, 12.0))

    def test_migration_removes_vm_and_frees_memory(self):
        memory = build_server()
        memory.apply_demands({"cache": 5.0, "kvstore": 5.0, "videoconf": 6.0}, 20.0)
        candidates = memory.migration_candidates()
        assert candidates[0] == "videoconf"  # most over its PA portion
        duration = memory.start_migration("videoconf")
        assert duration > 0
        # Advance enough simulated time for the migration to finish.
        for _ in range(10):
            memory.apply_demands({"cache": 5.0, "kvstore": 5.0}, 30.0)
        assert "videoconf" not in memory.vms


class TestMitigationEngine:
    def test_policy_catalogue_matches_figure21(self):
        assert set(MITIGATION_POLICIES) == {
            "none", "trim-reactive", "trim-proactive", "extend-reactive",
            "extend-proactive", "migrate-reactive", "migrate-proactive"}
        with pytest.raises(KeyError):
            mitigation_policy("reboot")

    def test_none_policy_does_nothing(self):
        memory = build_server(pool_gb=1.0)
        memory.apply_demands({"cache": 7.0, "kvstore": 7.0, "videoconf": 7.0}, 20.0)
        engine = MitigationEngine(mitigation_policy("none"))
        result = engine.mitigate(memory, 20.0)
        assert result.actions == []

    def test_extend_policy_grows_pool(self):
        memory = build_server(pool_gb=1.0)
        memory.apply_demands({"cache": 7.0, "kvstore": 7.0, "videoconf": 7.0}, 20.0)
        engine = MitigationEngine(mitigation_policy("extend-reactive"))
        result = engine.mitigate(memory, 20.0)
        assert MitigationAction.EXTEND in result.actions
        assert result.extended_gb > 0

    def test_migrate_policy_starts_migration(self):
        memory = build_server(pool_gb=0.5)
        memory.apply_demands({"cache": 8.0, "kvstore": 8.0, "videoconf": 8.0}, 20.0)
        engine = MitigationEngine(mitigation_policy("migrate-reactive"))
        result = engine.mitigate(memory, 20.0)
        assert result.migrated_vm is not None
        assert result.migrated_vm in memory._migrations

    def test_trim_bandwidth_limits_amount(self):
        memory = build_server(pool_gb=6.0)
        memory.apply_demands({"cache": 8.0, "kvstore": 8.0, "videoconf": 1.0}, 20.0)
        memory.apply_demands({"cache": 2.0, "kvstore": 2.0, "videoconf": 1.0}, 20.0)
        engine = MitigationEngine(mitigation_policy("trim-reactive"))
        result = engine.mitigate(memory, dt_seconds=1.0, needed_gb=100.0)
        # At 1.1 GB/s, one second can trim at most 1.1 GB.
        assert result.trimmed_gb <= 1.1 + 1e-9


class TestOversubscriptionAgent:
    def test_agent_tracks_available_pool(self):
        memory = build_server()
        agent = OversubscriptionAgent(memory, mitigation_policy("none"),
                                      interval_seconds=20.0)
        report = agent.tick(0.0, {"cache": 2.0, "kvstore": 2.0, "videoconf": 1.0})
        assert report.oversub_available_gb == pytest.approx(6.0)
        assert not report.reactive_trigger

    def test_reactive_trigger_on_pool_exhaustion(self):
        memory = build_server(pool_gb=1.0)
        agent = OversubscriptionAgent(memory, mitigation_policy("extend-reactive"),
                                      interval_seconds=20.0)
        report = agent.tick(0.0, {"cache": 7.0, "kvstore": 7.0, "videoconf": 7.0})
        assert report.reactive_trigger
        assert report.mitigation is not None and report.mitigation.actions

    def test_agent_report_series(self):
        memory = build_server()
        agent = OversubscriptionAgent(memory, mitigation_policy("trim-reactive"),
                                      interval_seconds=20.0)
        for step in range(5):
            agent.tick(step * 20.0, {"cache": 3.0, "kvstore": 3.0, "videoconf": 2.0})
        assert len(agent.reports) == 5
        assert all(r.oversub_available_gb >= 0.0 for r in agent.reports)
        assert sum(r.page_fault_gb for r in agent.reports) >= 0.0
