"""Cluster and server simulation substrate."""

from repro.simulator.engine import (
    ClusterRunResult,
    ClusterSimulation,
    FailureEvent,
    SimulationConfig,
    simulate_policy,
)
from repro.simulator.memory import (
    PAGING_BANDWIDTH_GBPS,
    DemandOutcome,
    ServerMemoryModel,
)
from repro.simulator.metrics import (
    MitigationTimeline,
    PolicyEvaluation,
    PredictionAccuracy,
    ViolationStats,
    compare_policies,
)
from repro.simulator.replay import (
    ReferenceViolationMeter,
    VectorizedViolationMeter,
    chunk_slots_for_budget,
)
from repro.simulator.sweep import (
    PolicySweepError,
    SweepTask,
    sweep_policies,
)

__all__ = [
    "ClusterRunResult",
    "ClusterSimulation",
    "DemandOutcome",
    "FailureEvent",
    "MitigationTimeline",
    "PAGING_BANDWIDTH_GBPS",
    "PolicyEvaluation",
    "PolicySweepError",
    "PredictionAccuracy",
    "ReferenceViolationMeter",
    "ServerMemoryModel",
    "SimulationConfig",
    "SweepTask",
    "VectorizedViolationMeter",
    "ViolationStats",
    "chunk_slots_for_budget",
    "compare_policies",
    "simulate_policy",
    "sweep_policies",
]
