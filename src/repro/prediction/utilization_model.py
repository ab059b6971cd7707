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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource
from repro.prediction.buckets import bucketize_array
from repro.prediction.features import FeatureEncoder, HistoryIndex
from repro.prediction.forest import RandomForestRegressor
from repro.trace.timeseries import DEFAULT_WINDOWS, TimeWindowConfig
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
        self._history = HistoryIndex.build(history_vms, self.windows,
                                           self.percentile, min_lifetime_days)
        training_vms = [vm for vm in history_vms
                        if vm.lifetime_days >= min_lifetime_days and vm.has_utilization()]
        if not training_vms:
            raise ValueError("no long-running VMs with utilization to train on")

        n_windows = self.windows.windows_per_day
        rows_per_vm = n_windows
        total_rows = len(training_vms) * rows_per_vm

        for resource in ALL_RESOURCES:
            encoder = self._encoders[resource]
            features = np.zeros((total_rows, encoder.n_features))
            target_percentile = np.zeros(total_rows)
            target_maximum = np.zeros(total_rows)
            row = 0
            for vm in training_vms:
                series = vm.series(resource)
                window_pct = series.lifetime_window_percentile(self.windows, self.percentile)
                window_max = series.lifetime_window_max(self.windows)
                overall_pct = series.percentile(self.percentile)
                overall_max = series.maximum()
                vm_features = encoder.encode_all_windows(vm, self._history)
                for window in range(n_windows):
                    features[row] = vm_features[window]
                    pct = window_pct[window]
                    mx = window_max[window]
                    target_percentile[row] = overall_pct if np.isnan(pct) else pct
                    target_maximum[row] = overall_max if np.isnan(mx) else mx
                    row += 1

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

        self.report.n_training_vms = len(training_vms)
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
