"""Tests for the from-scratch tree, forest, EWMA, LSTM, and bucket helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prediction.buckets import (
    BUCKET_WIDTH,
    bucket_centers,
    bucketize,
    bucketize_array,
    round_memory_up,
)
from repro.prediction.ewma import EWMAPredictor, ewma_series, one_step_errors
from repro.prediction.forest import RandomForestRegressor
from repro.prediction.lstm import LSTMConfig, LSTMPredictor, build_sequences
from repro.prediction import tree as tree_module
from repro.prediction.tree import DecisionTreeRegressor, _best_split


class TestDecisionTree:
    def test_fits_simple_step_function(self):
        rng = np.random.default_rng(0)
        x = rng.random((300, 3))
        y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        predictions = tree.predict(x)
        assert np.mean(np.abs(predictions - y)) < 0.05

    def test_respects_max_depth(self):
        rng = np.random.default_rng(1)
        x = rng.random((200, 4))
        y = rng.random(200)
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(2)
        x = rng.random((64, 2))
        y = rng.random(64)
        tree = DecisionTreeRegressor(min_samples_leaf=16).fit(x, y)
        leaf_sizes = [node.n_samples for node in tree._nodes if node.feature < 0]
        assert min(leaf_sizes) >= 16

    def test_constant_target_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 0.7)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.node_count == 1
        assert tree.predict([[5.0]])[0] == pytest.approx(0.7)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((10, 2)), np.zeros(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_feature_importances_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.random((150, 5))
        y = x[:, 2] * 2.0
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        importances = tree.feature_importances()
        assert importances.sum() == pytest.approx(1.0)
        assert importances.argmax() == 2


def _reference_best_split(x, y, feature_indices, min_samples_leaf):
    """The per-feature loop the 2-D split search replaced: one stable sort
    and one cumulative pass per candidate feature, compared in
    ``feature_indices`` order with a strict ``<``."""
    n = y.shape[0]
    best_feature, best_threshold, best_score = -1, 0.0, np.inf
    for feature in feature_indices:
        column = x[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]
        sorted_y = y[order]
        csum = np.cumsum(sorted_y)
        csum_sq = np.cumsum(sorted_y ** 2)
        counts_left = np.arange(1, n)
        counts_right = n - counts_left
        sum_left = csum[:-1]
        sum_right = csum[-1] - sum_left
        sq_left = csum_sq[:-1]
        sq_right = csum_sq[-1] - sq_left
        scores = (sq_left - sum_left ** 2 / counts_left) \
            + (sq_right - sum_right ** 2 / counts_right)
        valid = (sorted_x[1:] != sorted_x[:-1]) \
            & (counts_left >= min_samples_leaf) & (counts_right >= min_samples_leaf)
        if not np.any(valid):
            continue
        scores = np.where(valid, scores, np.inf)
        idx = int(np.argmin(scores))
        if scores[idx] < best_score:
            best_score = float(scores[idx])
            best_feature = int(feature)
            best_threshold = float((sorted_x[idx] + sorted_x[idx + 1]) / 2.0)
    return best_feature, best_threshold, best_score


def _reference_predict(tree, x):
    """The per-row walk over the ``_Node`` objects that the level walk
    replaced."""
    out = np.empty(x.shape[0])
    for row in range(x.shape[0]):
        node = tree._nodes[0]
        while node.feature >= 0:
            node = tree._nodes[node.left if x[row, node.feature] <= node.threshold
                               else node.right]
        out[row] = node.value
    return out


class TestTreeKernelsMatchLoops:
    """The 2-D split search and the level-walk predict equal the loops they
    replaced bit for bit (the references above are those loops)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_best_split_matches_per_feature_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        x = rng.random((n, 6))
        x[:, 1] = np.round(x[:, 1] * 3)       # few distinct values
        x[:, 4] = 0.5                          # a constant column
        y = np.round(rng.random(n) * 10) / 10  # duplicate targets
        for min_samples_leaf in (1, 2, 5):
            for features in (np.arange(6), rng.permutation(6)[:4],
                             np.array([4])):
                assert _best_split(x, y, features, min_samples_leaf) == \
                    _reference_best_split(x, y, features, min_samples_leaf)

    def test_tied_scores_across_features_go_to_the_first_candidate(self):
        rng = np.random.default_rng(9)
        x = rng.random((40, 3))
        x[:, 2] = x[:, 0]  # two features with identical scores
        y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
        for order, winner in (([0, 2, 1], 0), ([2, 0, 1], 2), ([1, 2, 0], 2)):
            features = np.array(order)
            result = _best_split(x, y, features, 1)
            assert result == _reference_best_split(x, y, features, 1)
            assert result[0] == winner

    def test_leaf_size_that_forbids_every_split(self):
        rng = np.random.default_rng(10)
        x = rng.random((10, 3))
        y = rng.random(10)
        assert _best_split(x, y, np.arange(3), 6) == (-1, 0.0, np.inf)
        assert _reference_best_split(x, y, np.arange(3), 6) == (-1, 0.0, np.inf)

    def test_two_samples(self):
        x = np.array([[0.2, 0.3], [0.7, 0.3]])
        y = np.array([0.0, 1.0])
        result = _best_split(x, y, np.array([1, 0]), 1)
        assert result == _reference_best_split(x, y, np.array([1, 0]), 1)
        assert result == (0, (0.2 + 0.7) / 2.0, 0.0)
        assert _best_split(x, y, np.array([1]), 1) == (-1, 0.0, np.inf)

    def test_fit_matches_per_feature_loop(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.random((300, 8))
        x[:, 3] = np.round(x[:, 3] * 5)
        y = x[:, 0] + (x[:, 3] > 2) * 0.5 + rng.normal(0, 0.05, 300)
        fast = DecisionTreeRegressor(max_depth=8, min_samples_leaf=3,
                                     max_features="sqrt", random_state=4).fit(x, y)
        monkeypatch.setattr(tree_module, "_best_split", _reference_best_split)
        slow = DecisionTreeRegressor(max_depth=8, min_samples_leaf=3,
                                     max_features="sqrt", random_state=4).fit(x, y)
        assert fast.node_count > 10
        assert fast._nodes == slow._nodes

    def test_predict_matches_node_walk(self):
        rng = np.random.default_rng(12)
        x = rng.random((200, 5))
        x[:, 2] = np.round(x[:, 2] * 4)
        y = x[:, 0] * 2 + x[:, 2] + rng.normal(0, 0.1, 200)
        tree = DecisionTreeRegressor(max_depth=7, random_state=0).fit(x, y)
        # Training rows, fresh rows, rows sitting exactly on every
        # threshold, and a NaN row (every comparison false: always right).
        on_threshold = np.tile(x[0], (tree.node_count, 1))
        for row, node in enumerate(tree._nodes):
            if node.feature >= 0:
                on_threshold[row, node.feature] = node.threshold
        queries = np.vstack([x, rng.random((50, 5)), on_threshold,
                             np.full((1, 5), np.nan)])
        predicted = tree.predict(queries)
        expected = _reference_predict(tree, queries)
        assert predicted.dtype == expected.dtype
        assert predicted.tobytes() == expected.tobytes()


class TestRandomForest:
    def test_forest_beats_noise_floor(self):
        rng = np.random.default_rng(4)
        x = rng.random((400, 6))
        y = 0.6 * x[:, 0] + 0.3 * (x[:, 1] > 0.5) + rng.normal(0, 0.02, 400)
        forest = RandomForestRegressor(n_estimators=12, random_state=0).fit(x, y)
        predictions = forest.predict(x)
        assert np.mean(np.abs(predictions - y)) < 0.08
        assert forest.oob_error_ is not None and forest.oob_error_ < 0.2

    def test_reproducible_with_seed(self):
        rng = np.random.default_rng(5)
        x = rng.random((100, 3))
        y = x[:, 0]
        a = RandomForestRegressor(n_estimators=5, random_state=11).fit(x, y).predict(x[:10])
        b = RandomForestRegressor(n_estimators=5, random_state=11).fit(x, y).predict(x[:10])
        np.testing.assert_allclose(a, b)

    def test_predict_quantile_is_conservative(self):
        rng = np.random.default_rng(6)
        x = rng.random((200, 3))
        y = x[:, 0] + rng.normal(0, 0.1, 200)
        forest = RandomForestRegressor(n_estimators=10, random_state=1).fit(x, y)
        mean_pred = forest.predict(x[:20])
        p90_pred = forest.predict_quantile(x[:20], 0.9)
        assert np.all(p90_pred >= mean_pred - 1e-9)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_model_size_estimate_positive(self):
        rng = np.random.default_rng(7)
        x = rng.random((50, 2))
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(x, x[:, 0])
        assert forest.estimate_model_size_bytes() > 0


class TestEWMA:
    def test_converges_to_constant_signal(self):
        predictor = EWMAPredictor(alpha=0.5)
        for _ in range(20):
            predictor.update(0.6)
        assert predictor.predict() == pytest.approx(0.6, abs=1e-6)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=1.5)

    def test_predict_before_update_raises(self):
        with pytest.raises(RuntimeError):
            EWMAPredictor().predict()

    def test_low_error_on_stable_series(self):
        rng = np.random.default_rng(8)
        series = np.clip(0.5 + rng.normal(0, 0.01, 200), 0, 1)
        errors = one_step_errors(series, alpha=0.5)
        assert errors.mean() < 0.04

    def test_ewma_series_matches_online(self):
        values = np.array([0.2, 0.8, 0.4, 0.6])
        offline = ewma_series(values, alpha=0.5)
        predictor = EWMAPredictor(alpha=0.5)
        online = [predictor.update(v) for v in values]
        np.testing.assert_allclose(offline, online)


class TestLSTM:
    def test_learns_periodic_signal(self):
        rng = np.random.default_rng(9)
        series = np.clip(0.4 + 0.25 * np.sin(np.arange(300) / 10) + rng.normal(0, 0.01, 300), 0, 1)
        sequences, targets = build_sequences(series, 5)
        model = LSTMPredictor(LSTMConfig(epochs=50, seed=0))
        model.fit(sequences[:200], targets[:200])
        predictions = model.predict(sequences[200:])
        assert np.mean(np.abs(predictions - targets[200:])) < 0.08
        assert model.training_loss_[-1] < model.training_loss_[0]

    def test_output_bounded(self):
        model = LSTMPredictor(LSTMConfig(seed=1))
        sequence = np.random.default_rng(0).random((4, 5, 2))
        predictions = model.predict(sequence)
        assert np.all(predictions >= 0) and np.all(predictions <= 1)

    def test_shape_validation(self):
        model = LSTMPredictor()
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 3, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 5, 4)), np.zeros(10))

    def test_memory_footprint_small(self):
        # Section 4.5: each local predictor takes ~25 KB.
        model = LSTMPredictor()
        assert model.memory_bytes() < 64 * 1024

    def test_build_sequences_with_windowing(self):
        series = np.linspace(0, 1, 100)
        sequences, targets = build_sequences(series, sequence_length=5, window=4)
        assert sequences.shape[1:] == (5, 2)
        assert sequences.shape[0] == targets.shape[0] > 0


class TestBuckets:
    def test_paper_example(self):
        # 17.3% rounds up to 20%.
        assert bucketize(0.173) == pytest.approx(0.20)

    def test_exact_boundary_not_bumped(self):
        assert bucketize(0.20) == pytest.approx(0.20)

    def test_zero_and_one(self):
        assert bucketize(0.0) == 0.0
        assert bucketize(1.0) == 1.0
        assert bucketize(0.999) == 1.0

    def test_memory_rounding(self):
        assert round_memory_up(12.3) == 13.0
        assert round_memory_up(8.0) == 8.0
        assert round_memory_up(0.0) == 0.0

    def test_bucket_centers_cover_unit_interval(self):
        centers = bucket_centers()
        assert centers[0] == pytest.approx(BUCKET_WIDTH)
        assert centers[-1] == pytest.approx(1.0)
        assert len(centers) == 20

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            bucketize(0.5, width=0)


@settings(max_examples=100, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=1.0))
def test_bucketize_never_decreases_and_bounds_error(value):
    bucketed = bucketize(value)
    assert bucketed + 1e-9 >= value
    assert bucketed - value <= BUCKET_WIDTH + 1e-9
    assert 0.0 <= bucketed <= 1.0


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
def test_bucketize_array_matches_scalar(values):
    arr = bucketize_array(values)
    for scalar, vectorised in zip(values, arr):
        assert vectorised == pytest.approx(bucketize(scalar))
