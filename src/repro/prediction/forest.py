"""Bagged random-forest regressor built on the from-scratch CART tree.

Coach uses a random forest to predict per-time-window utilization percentiles
because it handles categorical features well and is less prone to overfitting
than boosted alternatives, which reduces the chance of under-predictions
(Section 3.3).  This implementation supports the subset of the scikit-learn
interface the rest of the library needs: ``fit``, ``predict``,
``feature_importances_`` and out-of-bag error for quick validation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.prediction.tree import DecisionTreeRegressor


class RandomForestRegressor:
    """An ensemble of decorrelated CART trees averaged at prediction time."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: Optional[int] = 12,
        min_samples_leaf: int = 2,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ):
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: List[DecisionTreeRegressor] = []
        self.oob_prediction_: Optional[np.ndarray] = None
        self.oob_error_: Optional[float] = None
        self.n_features_: int = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n_samples, n_features) aligned with 1-D y")
        n_samples = x.shape[0]
        if n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = x.shape[1]

        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        oob_sum = np.zeros(n_samples)
        oob_count = np.zeros(n_samples)

        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=np.random.default_rng(rng.integers(0, 2 ** 32)),
            )
            if self.bootstrap:
                sample_idx = rng.integers(0, n_samples, size=n_samples)
            else:
                sample_idx = np.arange(n_samples)
            tree.fit(x[sample_idx], y[sample_idx])
            self.trees_.append(tree)

            if self.bootstrap:
                out_of_bag = np.setdiff1d(np.arange(n_samples), np.unique(sample_idx),
                                          assume_unique=True)
                if out_of_bag.size:
                    oob_sum[out_of_bag] += tree.predict(x[out_of_bag])
                    oob_count[out_of_bag] += 1

        if self.bootstrap and np.any(oob_count > 0):
            covered = oob_count > 0
            oob = np.full(n_samples, np.nan)
            oob[covered] = oob_sum[covered] / oob_count[covered]
            self.oob_prediction_ = oob
            self.oob_error_ = float(np.mean(np.abs(oob[covered] - y[covered])))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        predictions = np.zeros(x.shape[0])
        for tree in self.trees_:
            predictions += tree.predict(x)
        return predictions / len(self.trees_)

    def predict_quantile(self, x: np.ndarray, quantile: float) -> np.ndarray:
        """Quantile of the per-tree predictions.

        Using an upper quantile of the ensemble (rather than the mean) gives
        conservative predictions, which Coach prefers because under-predicting
        the guaranteed portion risks contention (G2).  This is the paper's
        conservative-ensemble mechanism; the built-in models take their
        percentile over the telemetry instead, so no policy calls it yet.
        """
        if not self.trees_:
            raise RuntimeError("forest has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        per_tree = np.stack([tree.predict(x) for tree in self.trees_], axis=0)
        return np.percentile(per_tree, quantile * 100.0, axis=0)

    @property
    def feature_importances_(self) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest has not been fitted")
        importances = np.zeros(self.n_features_)
        for tree in self.trees_:
            importances += tree.feature_importances()
        return importances / len(self.trees_)

    def estimate_model_size_bytes(self) -> int:
        """Rough in-memory footprint, used by the Section 4.5 overhead report."""
        node_bytes = 8 * 6  # feature, threshold, left, right, value, n_samples
        return sum(tree.node_count for tree in self.trees_) * node_bytes
