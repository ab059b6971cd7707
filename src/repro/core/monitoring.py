"""Server-level monitoring and contention detection (Section 3.4).

The monitoring component of the oversubscription agent samples OS performance
counters every 20 seconds (CPU utilization and wait time, memory page
read/write operations, free oversubscribed memory) and compares them against
thresholds derived from historical incident data.  When a threshold trips, it
signals the mitigation component to run *reactive* mitigations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.resources import Resource

#: Default monitoring interval in seconds.
MONITORING_INTERVAL_SECONDS = 20.0


@dataclass(frozen=True)
class MonitoringThresholds:
    """Contention-detection thresholds.

    The CPU rule follows the paper's example: flag contention when CPU wait
    time exceeds 0.1% while utilization is above 20%.  The memory rules flag
    contention when the oversubscribed pool is nearly exhausted or when page
    faults occur.
    """

    cpu_wait_fraction: float = 0.001
    cpu_utilization_floor: float = 0.20
    #: Flag memory contention when free oversubscribed memory drops below this
    #: fraction of the pool.
    memory_free_pool_fraction: float = 0.10
    #: Flag memory contention when more than this many GB faulted to the
    #: backing store during the interval.
    page_fault_gb: float = 0.0


@dataclass
class ServerSample:
    """One monitoring interval's worth of counters for a server."""

    time_seconds: float
    cpu_utilization: float
    cpu_wait_fraction: float
    memory_demand_gb: float
    memory_capacity_gb: float
    oversub_pool_gb: float
    oversub_available_gb: float
    page_fault_gb: float = 0.0

    @property
    def memory_utilization(self) -> float:
        if self.memory_capacity_gb <= 0:
            return 0.0
        return min(1.0, self.memory_demand_gb / self.memory_capacity_gb)

    @property
    def oversub_pressure(self) -> float:
        """Fraction of the oversubscribed pool currently consumed."""
        if self.oversub_pool_gb <= 0:
            return 0.0
        return 1.0 - self.oversub_available_gb / self.oversub_pool_gb


@dataclass
class ContentionSignal:
    """A detected (or predicted) contention event on one resource."""

    resource: Resource
    severity: float
    reason: str
    proactive: bool = False

    def __post_init__(self) -> None:
        self.severity = float(max(0.0, min(1.0, self.severity)))


@dataclass
class MonitoringComponent:
    """Threshold-based contention detector fed by periodic samples."""

    thresholds: MonitoringThresholds = field(default_factory=MonitoringThresholds)
    interval_seconds: float = MONITORING_INTERVAL_SECONDS
    history: List[ServerSample] = field(default_factory=list)
    max_history: int = 4096

    def observe(self, sample: ServerSample) -> List[ContentionSignal]:
        """Record a sample and return any contention signals it triggers."""
        self.history.append(sample)
        if len(self.history) > self.max_history:
            self.history = self.history[-self.max_history:]
        return self.detect(sample)

    def detect(self, sample: ServerSample) -> List[ContentionSignal]:
        signals: List[ContentionSignal] = []
        t = self.thresholds

        if (sample.cpu_wait_fraction > t.cpu_wait_fraction
                and sample.cpu_utilization > t.cpu_utilization_floor):
            severity = min(1.0, sample.cpu_wait_fraction / max(t.cpu_wait_fraction, 1e-9) / 10.0)
            signals.append(ContentionSignal(
                Resource.CPU, severity,
                f"cpu wait {sample.cpu_wait_fraction:.4f} at "
                f"{sample.cpu_utilization:.0%} utilization"))

        if sample.page_fault_gb > t.page_fault_gb:
            signals.append(ContentionSignal(
                Resource.MEMORY, min(1.0, sample.page_fault_gb / 1.0),
                f"{sample.page_fault_gb:.2f} GB faulted to the backing store"))
        elif (sample.oversub_pool_gb > 0
              and sample.oversub_available_gb
              < t.memory_free_pool_fraction * sample.oversub_pool_gb):
            signals.append(ContentionSignal(
                Resource.MEMORY, sample.oversub_pressure,
                f"oversubscribed pool {sample.oversub_pressure:.0%} consumed"))
        return signals

    def summary(self) -> Dict[str, float]:
        if not self.history:
            return {"samples": 0.0}
        return {
            "samples": float(len(self.history)),
            "mean_cpu": float(sum(s.cpu_utilization for s in self.history) / len(self.history)),
            "mean_memory": float(sum(s.memory_utilization for s in self.history)
                                 / len(self.history)),
            "total_page_fault_gb": float(sum(s.page_fault_gb for s in self.history)),
        }
