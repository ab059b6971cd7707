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
#: Columns a VM's own attributes fill (:func:`_vm_columns`), and the scalar
#: history columns after the three window columns
#: (:meth:`FeatureEncoder._history_columns`).
_N_OWN_COLUMNS = 9
_N_HISTORY_SCALARS = 5


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
        return _enough_history(*self.lookup(vm), min_vms)


def _enough_history(group: GroupHistory, level: int, min_vms: int) -> bool:
    """A VM may be oversubscribed: its history comes from its subscription
    (level 1 or 2) and covers at least *min_vms* VMs."""
    return level >= 1 and group.n_vms >= min_vms


class HistoryLookups:
    """Each VM of a stream looked up in a :class:`HistoryIndex` once.

    ``groups`` lists the distinct ``(group, level)`` results in first-seen
    order and ``index[i]`` is VM ``i``'s entry, so every resource's
    :meth:`FeatureEncoder.encode_many` reads a group's columns once per
    group instead of once per VM.
    """

    def __init__(self, vms: Sequence[VMRecord], history: HistoryIndex):
        positions: Dict[int, int] = {}
        self.groups: List[Tuple[GroupHistory, int]] = []
        self.index = np.empty(len(vms), dtype=np.intp)
        for row, vm in enumerate(vms):
            group, level = history.lookup(vm)
            position = positions.get(id(group))
            if position is None:
                position = positions[id(group)] = len(self.groups)
                self.groups.append((group, level))
            self.index[row] = position

    def has_history(self, min_vms: int) -> np.ndarray:
        """:meth:`HistoryIndex.has_history` of every VM, as a bool vector."""
        enough = np.array([_enough_history(group, level, min_vms)
                           for group, level in self.groups], dtype=bool)
        return enough[self.index]


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

    def encode_many(self, vm_columns: np.ndarray,
                    lookups: HistoryLookups) -> np.ndarray:
        """The :meth:`encode_all_windows` rows of a stream of VMs, stacked.

        *vm_columns* is :func:`vm_feature_matrix` of the VMs and *lookups*
        their :class:`HistoryLookups`.  Returns ``(n_vms * windows_per_day,
        n_features)``: VM ``i``'s rows are ``i * windows_per_day`` onwards,
        each equal to ``encode_all_windows(vm, history)`` bit for bit,
        because every column is the same float the per-VM rows hold.
        """
        n_windows = self.windows.windows_per_day
        n_vms = vm_columns.shape[0]
        rows = np.empty((n_vms, n_windows, self.n_features))
        history_start = _N_OWN_COLUMNS + 3
        rows[:, :, :_N_OWN_COLUMNS] = vm_columns[:, None, :]
        rows[:, :, _N_OWN_COLUMNS:history_start] = self._window_columns()
        history = [self._history_columns(group, level)
                   for group, level in lookups.groups]
        scalars = np.array([columns for columns, _peaks in history]).reshape(
            -1, _N_HISTORY_SCALARS)
        peaks = np.array([peaks for _columns, peaks in history]).reshape(
            -1, n_windows)
        rows[:, :, history_start:-1] = scalars[lookups.index][:, None, :]
        rows[:, :, -1] = peaks[lookups.index]
        return rows.reshape(n_vms * n_windows, self.n_features)

    def _window_columns(self) -> List[List[float]]:
        """The window index and the sine and cosine of its centre hour, one
        row per window of the day."""
        columns = []
        for window_index in range(self.windows.windows_per_day):
            center_hour = (window_index + 0.5) * self.windows.window_hours
            angle = 2.0 * np.pi * center_hour / 24.0
            columns.append([float(window_index), float(np.sin(angle)),
                            float(np.cos(angle))])
        return columns

    def _history_columns(self, group: Optional[GroupHistory],
                         level: int) -> Tuple[List[float], List[float]]:
        """The five history columns of a group (``None`` = no index) and
        its per-window mean peak, falling back to the group's mean peak."""
        if group is None:
            n_vms, mean_peak, peak_range, mean_percentile = 0.0, 0.5, 1.0, 0.5
            window_peaks = None
        else:
            n_vms = float(group.n_vms)
            mean_peak = group.mean_peak.get(self.resource, 0.5)
            peak_range = group.peak_range.get(self.resource, 1.0)
            mean_percentile = group.mean_percentile.get(self.resource, 0.5)
            window_peaks = group.window_mean_peak.get(self.resource)
        peaks = [float(window_peaks[window_index])
                 if window_peaks is not None and window_peaks.size > window_index
                 else float(mean_peak)
                 for window_index in range(self.windows.windows_per_day)]
        return [float(level), n_vms, float(mean_peak), float(peak_range),
                float(mean_percentile)], peaks

    def _rows(self, vm: VMRecord, window_indices: Sequence[int],
              history: Optional[HistoryIndex]) -> List[List[float]]:
        """One feature row per window in *window_indices*; the VM's own
        features and its history lookup are shared by every row."""
        group, level = history.lookup(vm) if history is not None else (None, 0)
        columns, peaks = self._history_columns(group, level)
        own = _vm_columns(vm)
        windows = self._window_columns()
        return [[*own, *windows[window_index], *columns, peaks[window_index]]
                for window_index in window_indices]


def _vm_columns(vm: VMRecord) -> List[float]:
    """The VM's own feature columns: configuration, offering, subscription
    type and creation weekday."""
    config = vm.config
    family_ordinal = float(_FAMILIES.index(config.family)) if config.family in _FAMILIES else -1.0
    return [
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


def vm_feature_matrix(vms: Sequence[VMRecord]) -> np.ndarray:
    """Every VM's own feature columns, shape ``(n_vms, 9)``, computed once
    and shared by every resource's :meth:`FeatureEncoder.encode_many`."""
    return np.array([_vm_columns(vm) for vm in vms]).reshape(
        len(vms), _N_OWN_COLUMNS)
