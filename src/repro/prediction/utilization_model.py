"""Long-term per-time-window utilization prediction (Resource Central extension).

The cluster manager converts a VM request into per-resource, per-time-window
oversubscription rates using a random-forest model trained on historical
telemetry (Section 3.3).  For every resource and time window the model
predicts two quantities, quantized to 5% buckets:

* the *PX percentile* of utilization (e.g. P95) -- used to size the
  guaranteed (PA) portion;
* the *maximum* utilization -- used to size the oversubscribed (VA) portion.

When a VM has insufficient history, Coach conservatively does not
oversubscribe it; the model reports this via ``oversubscribable``.

Every model answers for one VM (``predict``) and for a stream of VMs
(``predict_many``, one :class:`WindowPredictionBatch`).  The cluster
manager plans a cluster's whole arrival stream from one ``predict_many``
call; each batch row equals ``predict`` of its VM bit for bit, and
``predict`` stays as that oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.prediction.buckets import bucketize_array
from repro.prediction.features import (
    FeatureEncoder,
    HistoryIndex,
    HistoryLookups,
    lifetime_stats,
    training_vms,
    vm_feature_matrix,
)
from repro.prediction.forest import RandomForestRegressor
from repro.trace.timeseries import (
    DEFAULT_WINDOWS,
    TimeWindowConfig,
    window_percentiles,
)
from repro.trace.vm import VMRecord


@dataclass
class WindowUtilizationPrediction:
    """Per-window utilization prediction for one VM."""

    windows: TimeWindowConfig
    #: Per resource: predicted PX utilization per window-of-day (fractions).
    percentile: Dict[Resource, np.ndarray]
    #: Per resource: predicted maximum utilization per window-of-day.
    maximum: Dict[Resource, np.ndarray]
    #: Whether the VM had enough history to be oversubscribed at all.
    oversubscribable: bool = True

    def clipped(self) -> "WindowUtilizationPrediction":
        """Ensure the maximum dominates the percentile in every window."""
        maximum = {r: np.maximum(self.maximum[r], self.percentile[r])
                   for r in self.maximum}
        return WindowUtilizationPrediction(self.windows, dict(self.percentile),
                                           maximum, self.oversubscribable)


@dataclass
class WindowPredictionBatch:
    """Per-window predictions of a stream of VMs, stacked (row ``i`` is VM
    ``i``; resources in ``ALL_RESOURCES`` order)."""

    windows: TimeWindowConfig
    #: ``(n_vms, n_resources, windows_per_day)`` predicted PX utilization.
    percentile: np.ndarray
    #: ``(n_vms, n_resources, windows_per_day)`` predicted maximum.
    maximum: np.ndarray
    #: ``(n_vms,)`` bool: whether each VM may be oversubscribed at all.
    oversubscribable: np.ndarray


#: One window covering the whole day: its window percentile is the
#: lifetime percentile.
_WHOLE_DAY = TimeWindowConfig(24)


@dataclass
class TrainingReport:
    """Bookkeeping for the Section 4.5 overhead analysis."""

    n_training_vms: int = 0
    n_training_rows: int = 0
    training_seconds: float = 0.0
    model_size_bytes: int = 0
    training_data_bytes: int = 0
    oob_error: Dict[str, float] = field(default_factory=dict)


class LongTermUtilizationModel:
    """Random-forest model predicting per-window utilization for new VMs."""

    def __init__(
        self,
        windows: TimeWindowConfig = DEFAULT_WINDOWS,
        percentile: float = 95.0,
        n_estimators: int = 20,
        max_depth: int = 10,
        min_samples_leaf: int = 3,
        random_state: int = 0,
        min_history_vms: int = 1,
    ):
        self.windows = windows
        self.percentile = percentile
        self.min_history_vms = min_history_vms
        self._forest_params = dict(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, random_state=random_state)
        self._encoders: Dict[Resource, FeatureEncoder] = {
            r: FeatureEncoder(windows, r) for r in ALL_RESOURCES}
        self._percentile_models: Dict[Resource, RandomForestRegressor] = {}
        self._maximum_models: Dict[Resource, RandomForestRegressor] = {}
        self._history: Optional[HistoryIndex] = None
        self.report = TrainingReport()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, history_vms: Sequence[VMRecord],
            min_lifetime_days: float = 1.0) -> "LongTermUtilizationModel":
        """Train on the VMs observed during the history window."""
        start = time.perf_counter()
        vms = training_vms(history_vms, min_lifetime_days)
        # Each VM's lifetime statistics are computed once: the history
        # index's three group levels and the targets below all share them.
        stats = [lifetime_stats(vm, self.windows, self.percentile) for vm in vms]
        self._history = HistoryIndex.from_stats(vms, stats, self.windows,
                                                self.percentile)
        if not vms:
            raise ValueError("no long-running VMs with utilization to train on")

        total_rows = len(vms) * self.windows.windows_per_day
        lookups = HistoryLookups(vms, self._history)
        vm_columns = vm_feature_matrix(vms)

        for resource in ALL_RESOURCES:
            features = self._encoders[resource].encode_many(vm_columns, lookups)
            # Row i, window w: the VM's window percentile (its lifetime
            # percentile where the window was never observed) and window
            # peak (its lifetime peak likewise).
            window_pct = window_percentiles(
                [vm.series(resource) for vm in vms], self.windows,
                self.percentile)
            own_pct = np.array([vm_stats[resource].percentile for vm_stats in stats])
            target_percentile = np.where(np.isnan(window_pct), own_pct[:, None],
                                         window_pct).ravel()
            window_peaks = np.array([vm_stats[resource].window_peaks
                                     for vm_stats in stats])
            own_peak = np.array([vm_stats[resource].peak for vm_stats in stats])
            target_maximum = np.where(np.isnan(window_peaks), own_peak[:, None],
                                      window_peaks).ravel()

            pct_model = RandomForestRegressor(**self._forest_params)
            max_model = RandomForestRegressor(**self._forest_params)
            pct_model.fit(features, target_percentile)
            max_model.fit(features, target_maximum)
            self._percentile_models[resource] = pct_model
            self._maximum_models[resource] = max_model
            if pct_model.oob_error_ is not None:
                self.report.oob_error[f"{resource.value}:percentile"] = pct_model.oob_error_
            if max_model.oob_error_ is not None:
                self.report.oob_error[f"{resource.value}:maximum"] = max_model.oob_error_
            self.report.training_data_bytes += int(features.nbytes + target_percentile.nbytes
                                                   + target_maximum.nbytes)
            self.report.model_size_bytes += (pct_model.estimate_model_size_bytes()
                                             + max_model.estimate_model_size_bytes())

        self.report.n_training_vms = len(vms)
        self.report.n_training_rows = total_rows * len(ALL_RESOURCES)
        self.report.training_seconds = time.perf_counter() - start
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._percentile_models)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, vm: VMRecord) -> WindowUtilizationPrediction:
        """Predict per-window utilization for a (new) VM."""
        if not self.is_fitted or self._history is None:
            raise RuntimeError("model must be fitted before prediction")
        oversubscribable = self._history.has_history(vm, self.min_history_vms)
        percentile: Dict[Resource, np.ndarray] = {}
        maximum: Dict[Resource, np.ndarray] = {}
        for resource in ALL_RESOURCES:
            features = self._encoders[resource].encode_all_windows(vm, self._history)
            pct = self._percentile_models[resource].predict(features)
            mx = self._maximum_models[resource].predict(features)
            percentile[resource] = bucketize_array(np.clip(pct, 0.0, 1.0))
            maximum[resource] = bucketize_array(np.clip(mx, 0.0, 1.0))
        return WindowUtilizationPrediction(
            self.windows, percentile, maximum, oversubscribable).clipped()

    def predict_many(self, vms: Sequence[VMRecord]) -> WindowPredictionBatch:
        """:meth:`predict` of a stream of VMs, each row bit for bit.

        Each VM's history group is looked up once.  Each resource's feature
        rows for every VM form one array (:meth:`FeatureEncoder.encode_many`),
        which each forest walks once; clipping, bucketing and the maximum's
        floor are the per-VM elementwise operations over the whole batch.
        """
        if not self.is_fitted or self._history is None:
            raise RuntimeError("model must be fitted before prediction")
        vms = list(vms)
        n_windows = self.windows.windows_per_day
        lookups = HistoryLookups(vms, self._history)
        vm_columns = vm_feature_matrix(vms)
        shape = (len(vms), len(ALL_RESOURCES), n_windows)
        percentile = np.empty(shape)
        maximum = np.empty(shape)
        for index, resource in enumerate(ALL_RESOURCES):
            features = self._encoders[resource].encode_many(vm_columns, lookups)
            for out, models in ((percentile, self._percentile_models),
                                (maximum, self._maximum_models)):
                predicted = models[resource].predict(features)
                out[:, index] = bucketize_array(
                    np.clip(predicted, 0.0, 1.0)).reshape(len(vms), n_windows)
        # WindowUtilizationPrediction.clipped: the maximum dominates.
        np.maximum(maximum, percentile, out=maximum)
        return WindowPredictionBatch(self.windows, percentile, maximum,
                                     lookups.has_history(self.min_history_vms))


class OracleUtilizationModel:
    """Perfect-knowledge predictor computed from the VM's actual future telemetry.

    Used to compute the *ideal allocation* against which Figure 19 measures
    over- and under-allocation, and as an upper bound in ablations.
    """

    def __init__(self, windows: TimeWindowConfig = DEFAULT_WINDOWS, percentile: float = 95.0):
        self.windows = windows
        self.percentile = percentile

    def predict(self, vm: VMRecord) -> WindowUtilizationPrediction:
        percentile: Dict[Resource, np.ndarray] = {}
        maximum: Dict[Resource, np.ndarray] = {}
        for resource in ALL_RESOURCES:
            series = vm.series(resource)
            pct = series.lifetime_window_percentile(self.windows, self.percentile)
            mx = series.lifetime_window_max(self.windows)
            overall_pct = series.percentile(self.percentile)
            overall_max = series.maximum()
            pct = np.where(np.isnan(pct), overall_pct, pct)
            mx = np.where(np.isnan(mx), overall_max, mx)
            percentile[resource] = np.clip(pct, 0.0, 1.0)
            maximum[resource] = np.clip(mx, 0.0, 1.0)
        return WindowUtilizationPrediction(self.windows, percentile, maximum, True).clipped()

    def predict_many(self, vms: Sequence[VMRecord]) -> WindowPredictionBatch:
        """:meth:`predict` of a stream of VMs, each row bit for bit.

        The window percentiles come from :func:`window_percentiles`, and
        so does the lifetime percentile, as the one window of a 24-hour
        configuration (the same samples, so the same ``np.percentile``).
        """
        vms = list(vms)
        shape = (len(vms), len(ALL_RESOURCES), self.windows.windows_per_day)
        percentile = np.empty(shape)
        maximum = np.empty(shape)
        for index, resource in enumerate(ALL_RESOURCES):
            series = [vm.series(resource) for vm in vms]
            pct = window_percentiles(series, self.windows, self.percentile)
            overall_pct = window_percentiles(series, _WHOLE_DAY, self.percentile)
            mx = np.array([s.lifetime_window_max(self.windows)
                           for s in series]).reshape(shape[0], shape[2])
            overall_max = np.array([s.maximum() for s in series])[:, None]
            percentile[:, index] = np.clip(
                np.where(np.isnan(pct), overall_pct, pct), 0.0, 1.0)
            maximum[:, index] = np.clip(
                np.where(np.isnan(mx), overall_max, mx), 0.0, 1.0)
        np.maximum(maximum, percentile, out=maximum)
        return WindowPredictionBatch(self.windows, percentile, maximum,
                                     np.ones(len(vms), dtype=bool))


class NoOversubscriptionModel:
    """Baseline "predictor" that always requests the full allocation.

    Corresponds to the ``None`` policy of Figure 20: the predicted percentile
    and maximum are 100% in every window, so nothing is oversubscribed.
    """

    def __init__(self, windows: TimeWindowConfig = DEFAULT_WINDOWS):
        self.windows = windows

    def predict(self, vm: VMRecord) -> WindowUtilizationPrediction:
        ones = np.ones(self.windows.windows_per_day)
        return WindowUtilizationPrediction(
            self.windows,
            {r: ones.copy() for r in ALL_RESOURCES},
            {r: ones.copy() for r in ALL_RESOURCES},
            oversubscribable=False,
        )

    def predict_many(self, vms: Sequence[VMRecord]) -> WindowPredictionBatch:
        """:meth:`predict` of a stream of VMs: all ones, none oversubscribable."""
        shape = (len(vms), len(ALL_RESOURCES), self.windows.windows_per_day)
        return WindowPredictionBatch(self.windows, np.ones(shape), np.ones(shape),
                                     np.zeros(len(vms), dtype=bool))
