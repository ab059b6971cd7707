"""From-scratch CART regression tree.

scikit-learn is not a dependency of this reproduction, so the random forest
regressor the paper relies on (Section 3.3) is built from first principles:
a binary regression tree grown by variance reduction with the usual
``max_depth`` / ``min_samples_leaf`` / ``max_features`` knobs, vectorised
with numpy so that training on tens of thousands of VM feature rows stays
fast enough for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class _Node:
    """One node of the tree.  Leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    n_samples: int = 0


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Find the split minimising weighted child variance.

    Returns ``(feature, threshold, score)``; ``feature`` is -1 when no valid
    split exists.  The score is the total sum of squared errors after the
    split (lower is better).

    Every candidate feature is scored in one 2-D pass (one column each);
    the columns are then compared in ``feature_indices`` order with a
    strict ``<``, so ties go to the earliest candidate.  Column-wise
    ``cumsum`` adds in the same order as a per-column one, so the scores
    equal a per-feature loop bit for bit.
    """
    n = y.shape[0]
    if n < 2:
        return -1, 0.0, np.inf
    columns = x[:, feature_indices]
    order = np.argsort(columns, axis=0, kind="stable")
    sorted_x = np.take_along_axis(columns, order, axis=0)
    sorted_y = y[order]

    # Cumulative statistics allow evaluating every split point in O(n).
    csum = np.cumsum(sorted_y, axis=0)
    csum_sq = np.cumsum(sorted_y ** 2, axis=0)
    total_sum = csum[-1]
    total_sq = csum_sq[-1]

    # Candidate split after position i puts i+1 samples left.
    counts_left = np.arange(1, n)[:, None]
    counts_right = n - counts_left
    sum_left = csum[:-1]
    sum_right = total_sum - sum_left
    sq_left = csum_sq[:-1]
    sq_right = total_sq - sq_left

    sse_left = sq_left - sum_left ** 2 / counts_left
    sse_right = sq_right - sum_right ** 2 / counts_right
    scores = sse_left + sse_right

    # A split is only valid between distinct feature values and when both
    # children satisfy the minimum leaf size.
    distinct = sorted_x[1:] != sorted_x[:-1]
    valid = distinct & (counts_left >= min_samples_leaf) & (counts_right >= min_samples_leaf)
    scores = np.where(valid, scores, np.inf)
    best_rows = np.argmin(scores, axis=0)
    has_split = valid.any(axis=0)

    best_feature = -1
    best_threshold = 0.0
    best_score = np.inf
    for column, feature in enumerate(feature_indices):
        if not has_split[column]:
            continue
        idx = int(best_rows[column])
        if scores[idx, column] < best_score:
            best_score = float(scores[idx, column])
            best_feature = int(feature)
            best_threshold = float((sorted_x[idx, column] + sorted_x[idx + 1, column]) / 2.0)

    return best_feature, best_threshold, best_score


class DecisionTreeRegressor:
    """A CART regression tree minimising squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child.
    max_features:
        Number of features considered per split (``None`` = all,
        ``"sqrt"`` = square root of the feature count, or an int/float
        fraction).  Randomised per node when a random state is supplied,
        which is what the forest uses for decorrelation.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: Optional[int | np.random.Generator] = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.max_features = max_features
        self._rng = (random_state if isinstance(random_state, np.random.Generator)
                     else np.random.default_rng(random_state))
        self._nodes: List[_Node] = []
        #: ``(feature, threshold, children, value)`` per-node arrays that
        #: :meth:`predict` walks: node ``i``'s left child is ``children[2 * i]``
        #: and its right child ``children[2 * i + 1]``, and every leaf is its
        #: own child.  Rebuilt from ``_nodes`` at the end of fit.
        self._levels: tuple = ()
        #: Number of levels :meth:`predict` walks (the fitted tree's depth).
        self._depth: int = 0
        self.n_features_: int = 0

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * n_features))
        return max(1, min(n_features, int(self.max_features)))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D array of shape (n_samples, n_features)")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("y must be a 1-D array aligned with x")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        self.n_features_ = x.shape[1]
        n_candidate_features = self._resolve_max_features(self.n_features_)
        self._nodes = []

        # Iterative construction with an explicit stack keeps recursion depth
        # bounded regardless of tree shape.
        root_index = self._new_leaf(y)
        stack: List[tuple[int, np.ndarray, int]] = [(root_index, np.arange(x.shape[0]), 0)]
        while stack:
            node_index, sample_indices, depth = stack.pop()
            node = self._nodes[node_index]
            # _new_leaf already set the node's value and size from these
            # very targets.
            targets = y[sample_indices]

            if (self.max_depth is not None and depth >= self.max_depth) or \
               sample_indices.shape[0] < self.min_samples_split or \
               np.all(targets == targets[0]):
                continue

            if n_candidate_features < self.n_features_:
                features = self._rng.choice(self.n_features_, size=n_candidate_features,
                                            replace=False)
            else:
                features = np.arange(self.n_features_)

            feature, threshold, _score = _best_split(
                x[sample_indices], targets, features, self.min_samples_leaf)
            if feature < 0:
                continue

            mask = x[sample_indices, feature] <= threshold
            left_indices = sample_indices[mask]
            right_indices = sample_indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                continue

            node.feature = feature
            node.threshold = threshold
            node.left = self._new_leaf(y[left_indices])
            node.right = self._new_leaf(y[right_indices])
            stack.append((node.left, left_indices, depth + 1))
            stack.append((node.right, right_indices, depth + 1))
        # predict() walks every row down one level per step, so a leaf
        # points to itself (both children) and tests feature 0: a row that
        # reached it stays there for the remaining steps.
        feature = np.array([node.feature for node in self._nodes], dtype=np.intp)
        children = np.array([(node.left, node.right) for node in self._nodes],
                            dtype=np.intp)
        leaves = np.flatnonzero(feature < 0)
        children[leaves] = leaves[:, None]
        feature[leaves] = 0
        self._levels = (feature,
                        np.array([node.threshold for node in self._nodes]),
                        children.ravel(),
                        np.array([node.value for node in self._nodes]))
        self._depth = self.depth()
        return self

    def _new_leaf(self, targets: np.ndarray) -> int:
        self._nodes.append(_Node(value=float(targets.mean()), n_samples=int(targets.shape[0])))
        return len(self._nodes) - 1

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._nodes:
            raise RuntimeError("tree has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {x.shape[1]}")

        # A fixed-depth level walk: every row takes one step per level, in
        # one gather and one comparison over all rows, and rows that reach a
        # leaf early stay on it.  Each step makes the per-row walk's float64
        # comparison, and a row goes right unless it holds (so a NaN goes
        # right), so the leaf values equal the per-row walk's bit for bit.
        feature, threshold, children, value = self._levels
        flat = x.ravel()
        row_starts = np.arange(0, flat.size, x.shape[1])
        index = np.zeros(x.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            go_right = ~(flat[row_starts + feature[index]] <= threshold[index])
            index = children[2 * index + go_right]
        return value[index]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._nodes:
            return 0
        depths = {0: 0}
        max_depth = 0
        stack = [0]
        while stack:
            index = stack.pop()
            node = self._nodes[index]
            if node.feature >= 0:
                for child in (node.left, node.right):
                    depths[child] = depths[index] + 1
                    max_depth = max(max_depth, depths[child])
                    stack.append(child)
        return max_depth

    def feature_importances(self) -> np.ndarray:
        """Importance of each feature as the number of samples it splits."""
        importances = np.zeros(self.n_features_)
        for node in self._nodes:
            if node.feature >= 0:
                importances[node.feature] += node.n_samples
        total = importances.sum()
        return importances / total if total > 0 else importances
