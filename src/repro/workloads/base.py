"""Cloud workload models (Table 2).

The paper evaluates CoachVM performance with nine unmodified applications on
a production server.  We cannot run memcached, SQL Server, TeraSort, SpecJBB,
DeathStarBench, BERT fine-tuning, or a video-conference stack inside this
reproduction, so each workload is modelled by the characteristics that
determine its sensitivity to memory oversubscription:

* the size of its working set relative to the VM memory;
* how concentrated its accesses are on the hot portion of the working set;
* whether memory accesses sit on the critical path of its key metric
  (tail-latency workloads are the most sensitive);
* how much memory it allocates/deallocates per unit of work (allocation churn
  stresses on-demand VA backing, which is why LLM fine-tuning suffers).

The performance model in :mod:`repro.workloads.perfmodel` converts these
characteristics plus a PA/VA configuration into a slowdown of the key metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List


class KeyMetric(str, Enum):
    """The metric each workload reports (Table 2)."""

    TAIL_LATENCY = "p99-latency"
    RUN_TIME = "run-time"
    THROUGHPUT = "throughput"


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of one cloud workload."""

    name: str
    description: str
    key_metric: KeyMetric
    #: Baseline value of the key metric on a fully PA-backed VM (ms for
    #: latency, minutes for run time, ops/s for throughput).
    baseline_value: float
    #: Unit of the key metric, for reporting.
    metric_unit: str
    #: Working set in GB on the default (32 GB) evaluation VM.
    working_set_gb: float
    #: Fraction of accesses that fall on the hot subset of the working set.
    hot_fraction: float
    #: How strongly page faults translate into key-metric degradation
    #: (tail-latency workloads have the highest sensitivity).
    memory_sensitivity: float
    #: Fraction of the working set re-allocated per measurement interval
    #: (allocation churn; high for LLM fine-tuning).
    allocation_churn: float
    #: Fraction of the working set that constitutes the hot subset.
    hot_set_fraction: float = 0.5
    #: Default VM memory size used in the Figure 18 experiments, GB.
    default_vm_memory_gb: float = 32.0

    @property
    def lower_is_better(self) -> bool:
        return self.key_metric in (KeyMetric.TAIL_LATENCY, KeyMetric.RUN_TIME)


@dataclass
class WorkloadResult:
    """Outcome of running one workload under a VM memory configuration."""

    workload: str
    configuration: str
    metric_value: float
    slowdown: float
    page_fault_rate: float
    va_access_fraction: float

    def normalised(self) -> float:
        """Normalised slowdown (>= 1.0 means worse than the baseline)."""
        return self.slowdown


def summarize_results(results: List[WorkloadResult]) -> Dict[str, Dict[str, float]]:
    """Group slowdowns by workload then configuration (Figure 18 layout)."""
    table: Dict[str, Dict[str, float]] = {}
    for result in results:
        table.setdefault(result.workload, {})[result.configuration] = result.slowdown
    return table
