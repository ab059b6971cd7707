"""The per-server oversubscription agent (Section 3.1 and 3.4).

Every server runs a local agent with three components:

* **monitoring** -- samples utilization and contention counters every
  20 seconds;
* **prediction** -- a two-level EWMA + LSTM forecaster anticipating
  contention up to five minutes ahead;
* **mitigation** -- trims, extends, or migrates to relieve contention,
  triggered reactively (monitoring) or proactively (prediction).

The agent is written against the memory-model protocol implemented by
:class:`repro.simulator.memory.ServerMemoryModel`, so it can drive either the
fine-grained single-server simulation (Figure 21) or a real backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.mitigation import MitigationEngine, MitigationPolicy, MitigationResult
from repro.core.monitoring import (
    ContentionSignal,
    MonitoringComponent,
    MonitoringThresholds,
    ServerSample,
)
from repro.core.resources import Resource
from repro.prediction.contention import TwoLevelContentionPredictor


@dataclass
class AgentTickReport:
    """Everything the agent observed and did during one monitoring interval."""

    time_seconds: float
    sample: ServerSample
    signals: List[ContentionSignal] = field(default_factory=list)
    forecast_short: float = 0.0
    forecast_long: Optional[float] = None
    proactive_trigger: bool = False
    reactive_trigger: bool = False
    mitigation: Optional[MitigationResult] = None
    page_fault_gb: float = 0.0
    oversub_available_gb: float = 0.0


class OversubscriptionAgent:
    """Coach's local server agent: monitor, predict, mitigate."""

    def __init__(
        self,
        memory_model,
        mitigation_policy: MitigationPolicy,
        thresholds: Optional[MonitoringThresholds] = None,
        interval_seconds: float = 20.0,
        contention_predictor: Optional[TwoLevelContentionPredictor] = None,
        proactive_threshold: float = 0.9,
    ):
        self.memory = memory_model
        self.policy = mitigation_policy
        self.monitoring = MonitoringComponent(thresholds or MonitoringThresholds(),
                                              interval_seconds)
        self.predictor = contention_predictor or TwoLevelContentionPredictor(
            samples_per_window=max(1, int(300 / interval_seconds)),
            warmup_windows=3,
        )
        self.engine = MitigationEngine(mitigation_policy)
        self.interval_seconds = interval_seconds
        self.proactive_threshold = proactive_threshold
        self.reports: List[AgentTickReport] = []

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def tick(self, time_seconds: float, vm_demands_gb: Dict[str, float],
             cpu_utilization: float = 0.0, cpu_wait_fraction: float = 0.0) -> AgentTickReport:
        """Advance one monitoring interval.

        ``vm_demands_gb`` gives each VM's current memory demand; the memory
        model applies it (allocating VA backing on demand and paging when the
        pool is exhausted), then the agent monitors, predicts, and mitigates.
        """
        outcome = self.memory.apply_demands(vm_demands_gb, self.interval_seconds)

        sample = ServerSample(
            time_seconds=time_seconds,
            cpu_utilization=cpu_utilization,
            cpu_wait_fraction=cpu_wait_fraction,
            memory_demand_gb=sum(vm_demands_gb.values()),
            memory_capacity_gb=self.memory.capacity_gb,
            oversub_pool_gb=self.memory.oversub_pool_gb,
            oversub_available_gb=self.memory.oversub_available_gb,
            page_fault_gb=outcome.page_fault_gb,
        )
        signals = self.monitoring.observe(sample)

        # Feed the predictors with the oversubscribed-pool pressure, which is
        # the quantity whose exhaustion causes memory contention.
        self.predictor.observe(sample.oversub_pressure)
        forecast = self.predictor.forecast()

        proactive_trigger = (
            self.policy.proactive and forecast.exceeds(self.proactive_threshold))
        reactive_trigger = any(s.resource is Resource.MEMORY for s in signals)

        mitigation: Optional[MitigationResult] = None
        if self.policy.enabled and (reactive_trigger or proactive_trigger):
            needed = max(outcome.unbacked_gb, self._headroom_deficit())
            mitigation = self.engine.mitigate(self.memory, self.interval_seconds, needed)

        report = AgentTickReport(
            time_seconds=time_seconds,
            sample=sample,
            signals=signals,
            forecast_short=forecast.short_term,
            forecast_long=forecast.long_term,
            proactive_trigger=proactive_trigger,
            reactive_trigger=reactive_trigger,
            mitigation=mitigation,
            page_fault_gb=outcome.page_fault_gb,
            oversub_available_gb=self.memory.oversub_available_gb,
        )
        self.reports.append(report)
        return report

    def _headroom_deficit(self) -> float:
        """How much free pool we would like to restore when acting proactively."""
        target_free = 0.15 * self.memory.oversub_pool_gb
        return max(0.0, target_free - self.memory.oversub_available_gb)
