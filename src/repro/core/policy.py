"""Oversubscription policies evaluated in the paper (Section 4.3, Figure 20).

* ``NONE`` -- no oversubscription: every VM gets its full request.
* ``SINGLE`` -- a single static oversubscription rate per VM (one 24-hour
  window), representative of the state of the art (Resource Central et al.).
* ``COACH`` -- Coach's default: six 4-hour windows and the P95 prediction
  percentile.
* ``AGGR_COACH`` -- an aggressive variant using the P50 percentile.

A policy bundles the time-window configuration, the prediction percentile,
and whether oversubscription is enabled at all; the cluster manager uses it
to instantiate the right predictor and to turn predictions into plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.trace.timeseries import TimeWindowConfig


class PolicyKind(str, Enum):
    NONE = "none"
    SINGLE = "single"
    COACH = "coach"
    AGGR_COACH = "aggr-coach"


@dataclass(frozen=True)
class PolicyConfig:
    """Everything the cluster manager needs to apply an oversubscription policy."""

    kind: PolicyKind
    #: Windows per day used for prediction and scheduling.
    windows: TimeWindowConfig
    #: Prediction percentile used to size the guaranteed portion.
    percentile: float
    #: Whether any oversubscription happens at all.
    oversubscribe: bool
    #: Initial fraction of the VA portion backed with physical memory.
    va_backing_fraction: float = 0.7
    #: Memory allocation granularity in GB.
    memory_granularity_gb: float = 1.0
    #: Minimum number of historical VMs required to oversubscribe a VM.
    min_history_vms: int = 1

    @property
    def name(self) -> str:
        return self.kind.value


#: Coach's default configuration (Section 3.3): six 4-hour windows, P95.
COACH_POLICY = PolicyConfig(
    kind=PolicyKind.COACH,
    windows=TimeWindowConfig(4),
    percentile=95.0,
    oversubscribe=True,
)

#: Aggressive Coach: P50 percentile, otherwise identical (Figure 20).
AGGR_COACH_POLICY = PolicyConfig(
    kind=PolicyKind.AGGR_COACH,
    windows=TimeWindowConfig(4),
    percentile=50.0,
    oversubscribe=True,
)

#: Single static rate per VM: one 24-hour window (state-of-the-art baseline).
SINGLE_RATE_POLICY = PolicyConfig(
    kind=PolicyKind.SINGLE,
    windows=TimeWindowConfig(24),
    percentile=95.0,
    oversubscribe=True,
)

#: No oversubscription at all.
NO_OVERSUBSCRIPTION_POLICY = PolicyConfig(
    kind=PolicyKind.NONE,
    windows=TimeWindowConfig(24),
    percentile=100.0,
    oversubscribe=False,
)

#: The four policies of Figure 20, in presentation order.
STANDARD_POLICIES: Dict[str, PolicyConfig] = {
    "none": NO_OVERSUBSCRIPTION_POLICY,
    "single": SINGLE_RATE_POLICY,
    "coach": COACH_POLICY,
    "aggr-coach": AGGR_COACH_POLICY,
}


def policy_by_name(name: str) -> PolicyConfig:
    """Look up one of the standard policies by name."""
    try:
        return STANDARD_POLICIES[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown policy {name!r}; expected one of {sorted(STANDARD_POLICIES)}"
        ) from exc
