"""Feature engineering for the long-term utilization model.

Coach's prediction model uses VM-specific features (VM configuration, weekday
of allocation, offering) and customer-specific features (subscription type
and the resource-utilization history of previous VMs in the subscription) --
all of which the platform already collects without user input (Section 3.3).

Features are encoded as a flat numeric vector so the from-scratch random
forest can consume them.  History features are computed per
``(subscription, VM configuration)`` group, the grouping that Figure 12
shows is the most predictive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import Offering, SubscriptionType, VMRecord

#: VM families given a stable ordinal encoding.
_FAMILIES = ("general-purpose", "memory-optimized", "compute-optimized")


@dataclass(frozen=True)
class LifetimeStats:
    """One training VM's lifetime utilization statistics for one resource.

    Computed once per VM (:func:`lifetime_stats`) and shared by every
    :class:`HistoryIndex` group the VM belongs to and by the training
    targets of :class:`~repro.prediction.utilization_model.LongTermUtilizationModel`.
    """

    #: Lifetime peak (``series.maximum()``).
    peak: float
    #: Lifetime percentile (``series.percentile(percentile)``).
    percentile: float
    #: Per-window-of-day maximum (``series.lifetime_window_max(windows)``).
    window_peaks: np.ndarray


def lifetime_stats(vm: VMRecord, windows: TimeWindowConfig,
                   percentile: float) -> Dict[Resource, LifetimeStats]:
    """Per-resource :class:`LifetimeStats` of one VM."""
    stats: Dict[Resource, LifetimeStats] = {}
    for resource in ALL_RESOURCES:
        series = vm.series(resource)
        stats[resource] = LifetimeStats(series.maximum(),
                                        series.percentile(percentile),
                                        series.lifetime_window_max(windows))
    return stats


def training_vms(history_vms: Sequence[VMRecord],
                 min_lifetime_days: float) -> List[VMRecord]:
    """The history VMs a model learns from: long-lived, with telemetry."""
    return [vm for vm in history_vms
            if vm.lifetime_days >= min_lifetime_days and vm.has_utilization()]


@dataclass
class GroupHistory:
    """Aggregated utilization history of one (subscription, config) group."""

    n_vms: int = 0
    #: Mean of the member VMs' lifetime peak utilization, per resource.
    mean_peak: Dict[Resource, float] = field(default_factory=dict)
    #: Spread (max - min) of the member VMs' lifetime peaks, per resource.
    peak_range: Dict[Resource, float] = field(default_factory=dict)
    #: Mean per-window-of-day maximum utilization, per resource
    #: (array of length ``windows_per_day``).
    window_mean_peak: Dict[Resource, np.ndarray] = field(default_factory=dict)
    #: Mean lifetime-percentile (e.g. P95) utilization, per resource.
    mean_percentile: Dict[Resource, float] = field(default_factory=dict)

    @classmethod
    def summarize(cls, members: Sequence[Dict[Resource, LifetimeStats]]) -> "GroupHistory":
        """Aggregate the member VMs' statistics (in member order)."""
        history = cls(n_vms=len(members))
        for resource in ALL_RESOURCES:
            peaks = np.asarray([stats[resource].peak for stats in members])
            history.mean_peak[resource] = float(peaks.mean())
            history.peak_range[resource] = float(peaks.max() - peaks.min())
            history.mean_percentile[resource] = float(
                np.mean([stats[resource].percentile for stats in members]))
            window_stack = np.vstack([stats[resource].window_peaks
                                      for stats in members])
            with np.errstate(all="ignore"):
                mean_windows = np.nanmean(window_stack, axis=0)
            # Windows never observed fall back to the overall mean peak.
            mean_windows = np.where(np.isnan(mean_windows), peaks.mean(), mean_windows)
            history.window_mean_peak[resource] = mean_windows
        return history


class HistoryIndex:
    """Index of historical VM utilization keyed by subscription and config.

    Built once from the training (history) portion of a trace; queried when
    featurizing new VMs.  Lookups fall back from ``(subscription, config)`` to
    ``subscription`` alone and finally to the global aggregate, recording
    which level matched (a feature in itself).
    """

    def __init__(self, windows: TimeWindowConfig, percentile: float = 95.0):
        self.windows = windows
        self.percentile = percentile
        self._by_sub_config: Dict[Tuple[str, str], GroupHistory] = {}
        self._by_sub: Dict[str, GroupHistory] = {}
        self._global = GroupHistory()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, history_vms: Sequence[VMRecord], windows: TimeWindowConfig,
              percentile: float = 95.0, min_lifetime_days: float = 1.0) -> "HistoryIndex":
        """Build the index from VMs observed in the history window.

        Only VMs lasting at least ``min_lifetime_days`` contribute: short VMs
        carry little temporal signal and the paper's oversubscription targets
        are the long-running ones.
        """
        vms = training_vms(history_vms, min_lifetime_days)
        return cls.from_stats(vms, [lifetime_stats(vm, windows, percentile)
                                    for vm in vms], windows, percentile)

    @classmethod
    def from_stats(cls, vms: Sequence[VMRecord],
                   stats: Sequence[Dict[Resource, LifetimeStats]],
                   windows: TimeWindowConfig,
                   percentile: float) -> "HistoryIndex":
        """Build the index from training VMs and their precomputed
        :func:`lifetime_stats` (``stats[i]`` belongs to ``vms[i]``)."""
        index = cls(windows, percentile)
        by_sub_config: Dict[Tuple[str, str], List[Dict[Resource, LifetimeStats]]] = {}
        by_sub: Dict[str, List[Dict[Resource, LifetimeStats]]] = {}
        for vm, vm_stats in zip(vms, stats):
            by_sub_config.setdefault((vm.subscription_id, vm.config.name),
                                     []).append(vm_stats)
            by_sub.setdefault(vm.subscription_id, []).append(vm_stats)
        index._by_sub_config = {key: GroupHistory.summarize(members)
                                for key, members in by_sub_config.items()}
        index._by_sub = {key: GroupHistory.summarize(members)
                         for key, members in by_sub.items()}
        if stats:
            index._global = GroupHistory.summarize(stats)
        return index

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(self, vm: VMRecord) -> Tuple[GroupHistory, int]:
        """History for a VM and the match level (2 = sub+config, 1 = sub, 0 = global)."""
        key = (vm.subscription_id, vm.config.name)
        if key in self._by_sub_config:
            return self._by_sub_config[key], 2
        if vm.subscription_id in self._by_sub:
            return self._by_sub[vm.subscription_id], 1
        return self._global, 0

    def has_history(self, vm: VMRecord, min_vms: int = 1) -> bool:
        """Whether the VM has enough subscription history to be oversubscribed."""
        history, level = self.lookup(vm)
        return level >= 1 and history.n_vms >= min_vms


class FeatureEncoder:
    """Encodes a VM (plus its history) into a flat numeric feature vector.

    One row is produced per (VM, time window); the window index and its
    centre hour are part of the features, which lets a single forest predict
    all windows.
    """

    def __init__(self, windows: TimeWindowConfig, resource: Resource):
        self.windows = windows
        self.resource = resource

    def feature_names(self) -> List[str]:
        return [
            "cores",
            "memory_gb",
            "gb_per_core",
            "family_ordinal",
            "is_paas",
            "is_internal",
            "is_test",
            "creation_weekday",
            "is_weekend_creation",
            "window_index",
            "window_center_sin",
            "window_center_cos",
            "history_level",
            "history_n_vms",
            "history_mean_peak",
            "history_peak_range",
            "history_mean_percentile",
            "history_window_mean_peak",
        ]

    @property
    def n_features(self) -> int:
        return len(self.feature_names())

    def encode(self, vm: VMRecord, window_index: int,
               history: Optional[HistoryIndex]) -> np.ndarray:
        return np.array(self._rows(vm, (window_index,), history)[0])

    def encode_all_windows(self, vm: VMRecord,
                           history: Optional[HistoryIndex]) -> np.ndarray:
        """Feature matrix with one row per window of the day."""
        return np.array(self._rows(vm, range(self.windows.windows_per_day), history))

    def _rows(self, vm: VMRecord, window_indices: Sequence[int],
              history: Optional[HistoryIndex]) -> List[List[float]]:
        """One feature row per window in *window_indices*; the VM's own
        features and its history lookup are shared by every row."""
        config = vm.config
        family_ordinal = float(_FAMILIES.index(config.family)) if config.family in _FAMILIES else -1.0
        vm_features = [
            float(config.cores),
            float(config.memory_gb),
            float(config.gb_per_core),
            family_ordinal,
            1.0 if vm.offering is Offering.PAAS else 0.0,
            1.0 if vm.subscription_type in (SubscriptionType.INTERNAL_PRODUCTION,
                                            SubscriptionType.INTERNAL_TEST) else 0.0,
            1.0 if vm.subscription_type in (SubscriptionType.EXTERNAL_TEST,
                                            SubscriptionType.INTERNAL_TEST) else 0.0,
            float(vm.creation_weekday),
            1.0 if vm.creation_weekday >= 5 else 0.0,
        ]

        if history is not None:
            group, level = history.lookup(vm)
            n_vms = float(group.n_vms)
            mean_peak = group.mean_peak.get(self.resource, 0.5)
            peak_range = group.peak_range.get(self.resource, 1.0)
            mean_percentile = group.mean_percentile.get(self.resource, 0.5)
            window_peaks = group.window_mean_peak.get(self.resource)
        else:
            level, n_vms = 0, 0.0
            mean_peak, peak_range, mean_percentile, window_peaks = 0.5, 1.0, 0.5, None

        rows = []
        for window_index in window_indices:
            center_hour = (window_index + 0.5) * self.windows.window_hours
            angle = 2.0 * np.pi * center_hour / 24.0
            window_mean_peak = (float(window_peaks[window_index])
                                if window_peaks is not None and window_peaks.size > window_index
                                else mean_peak)
            rows.append([
                *vm_features,
                float(window_index),
                float(np.sin(angle)),
                float(np.cos(angle)),
                float(level),
                n_vms,
                float(mean_peak),
                float(peak_range),
                float(mean_percentile),
                float(window_mean_peak),
            ])
        return rows
