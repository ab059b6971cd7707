"""Tests for the long-term utilization model, history index, and features."""

import hashlib

import numpy as np
import pytest

from repro.core.cluster_manager import build_prediction_model
from repro.core.policy import STANDARD_POLICIES
from repro.core.resources import ALL_RESOURCES, Resource
from repro.prediction.features import FeatureEncoder, HistoryIndex
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
    OracleUtilizationModel,
)
from repro.trace.generator import TraceGenerator, TraceGeneratorConfig
from repro.trace.timeseries import SLOTS_PER_DAY, TimeWindowConfig


@pytest.fixture(scope="module")
def fitted_model(small_trace):
    history, _ = small_trace.split_at(7 * SLOTS_PER_DAY)
    model = LongTermUtilizationModel(n_estimators=5, max_depth=8, random_state=0)
    model.fit(history.long_running().vms)
    return model


@pytest.fixture(scope="module")
def future_vms(small_trace):
    _, future = small_trace.split_at(7 * SLOTS_PER_DAY)
    vms = [vm for vm in future.vms if vm.has_utilization()]
    assert vms
    return vms


class TestHistoryIndex:
    def test_lookup_levels(self, small_trace):
        windows = TimeWindowConfig(4)
        history_vms = small_trace.long_running().vms
        index = HistoryIndex.build(history_vms, windows)
        vm = history_vms[0]
        group, level = index.lookup(vm)
        assert level == 2
        assert group.n_vms >= 1

    def test_global_fallback(self, small_trace):
        windows = TimeWindowConfig(4)
        index = HistoryIndex.build(small_trace.long_running().vms, windows)
        stranger = small_trace.vms[0]
        stranger = type(stranger)(
            vm_id="stranger", subscription_id="unknown-sub", config=stranger.config,
            cluster_id=stranger.cluster_id, start_slot=stranger.start_slot,
            end_slot=stranger.end_slot, utilization=stranger.utilization)
        group, level = index.lookup(stranger)
        assert level == 0
        assert not index.has_history(stranger)

    def test_window_mean_peak_shape(self, small_trace):
        windows = TimeWindowConfig(6)
        history = small_trace.long_running().vms
        index = HistoryIndex.build(history, windows)
        group, _level = index.lookup(history[0])
        for resource in ALL_RESOURCES:
            assert group.window_mean_peak[resource].shape == (windows.windows_per_day,)


class TestFeatureEncoder:
    def test_feature_vector_length(self, small_trace):
        windows = TimeWindowConfig(4)
        encoder = FeatureEncoder(windows, Resource.MEMORY)
        index = HistoryIndex.build(small_trace.long_running().vms, windows)
        vm = small_trace.vms[0]
        features = encoder.encode(vm, 0, index)
        assert features.shape == (encoder.n_features,)
        assert len(encoder.feature_names()) == encoder.n_features

    def test_all_windows_matrix(self, small_trace):
        windows = TimeWindowConfig(4)
        encoder = FeatureEncoder(windows, Resource.CPU)
        matrix = encoder.encode_all_windows(small_trace.vms[0], None)
        assert matrix.shape == (windows.windows_per_day, encoder.n_features)
        # Window index column differs across rows.
        window_column = encoder.feature_names().index("window_index")
        assert list(matrix[:, window_column]) == list(range(windows.windows_per_day))

    def test_all_windows_rows_equal_single_window_encodes(self, small_trace):
        windows = TimeWindowConfig(4)
        index = HistoryIndex.build(small_trace.long_running().vms, windows)
        encoder = FeatureEncoder(windows, Resource.MEMORY)
        for vm in small_trace.vms[:20]:
            for history in (index, None):
                matrix = encoder.encode_all_windows(vm, history)
                for window in range(windows.windows_per_day):
                    assert matrix[window].tobytes() == \
                        encoder.encode(vm, window, history).tobytes()


class TestLongTermModel:
    def test_prediction_shapes_and_ranges(self, fitted_model, future_vms):
        prediction = fitted_model.predict(future_vms[0])
        n_windows = fitted_model.windows.windows_per_day
        for resource in ALL_RESOURCES:
            assert prediction.percentile[resource].shape == (n_windows,)
            assert prediction.maximum[resource].shape == (n_windows,)
            assert np.all(prediction.percentile[resource] >= 0)
            assert np.all(prediction.maximum[resource] <= 1)

    def test_maximum_dominates_percentile(self, fitted_model, future_vms):
        for vm in future_vms[:10]:
            prediction = fitted_model.predict(vm)
            for resource in ALL_RESOURCES:
                assert np.all(prediction.maximum[resource] + 1e-9
                              >= prediction.percentile[resource])

    def test_predictions_are_bucketized(self, fitted_model, future_vms):
        prediction = fitted_model.predict(future_vms[0])
        for resource in ALL_RESOURCES:
            for value in prediction.percentile[resource]:
                assert abs(value / 0.05 - round(value / 0.05)) < 1e-6

    def test_reasonable_memory_accuracy(self, fitted_model, future_vms):
        """Predicted memory percentile should be in the neighbourhood of truth."""
        oracle = OracleUtilizationModel(fitted_model.windows, fitted_model.percentile)
        errors = []
        for vm in future_vms:
            if vm.lifetime_days < 1.0:
                continue
            predicted = fitted_model.predict(vm)
            actual = oracle.predict(vm)
            errors.append(np.mean(np.abs(predicted.percentile[Resource.MEMORY]
                                         - actual.percentile[Resource.MEMORY])))
        assert errors, "need long-running future VMs"
        assert float(np.mean(errors)) < 0.30

    def test_training_report_populated(self, fitted_model):
        report = fitted_model.report
        assert report.n_training_vms > 0
        assert report.training_seconds > 0
        assert report.model_size_bytes > 0

    def test_unfitted_model_raises(self, small_trace):
        model = LongTermUtilizationModel(n_estimators=2)
        with pytest.raises(RuntimeError):
            model.predict(small_trace.vms[0])

    def test_empty_training_set_rejected(self):
        model = LongTermUtilizationModel(n_estimators=2)
        with pytest.raises(ValueError):
            model.fit([])


class TestBaselineModels:
    def test_oracle_matches_series_statistics(self, small_trace, long_running_vm):
        windows = TimeWindowConfig(4)
        oracle = OracleUtilizationModel(windows, 95.0)
        prediction = oracle.predict(long_running_vm)
        series = long_running_vm.series(Resource.MEMORY)
        expected = series.lifetime_window_max(windows)
        expected = np.where(np.isnan(expected), series.maximum(), expected)
        np.testing.assert_allclose(prediction.maximum[Resource.MEMORY], expected, atol=1e-9)

    def test_no_oversubscription_model_predicts_full(self, small_trace):
        model = NoOversubscriptionModel(TimeWindowConfig(24))
        prediction = model.predict(small_trace.vms[0])
        assert not prediction.oversubscribable
        for resource in ALL_RESOURCES:
            assert np.all(prediction.percentile[resource] == 1.0)


#: SHA-256 over every golden-trace VM's learned prediction arrays and the
#: models' out-of-bag errors, per learned policy (see
#: ``_prediction_digest``).  Unlike the GOLDEN table, which pins counts
#: exactly but floats only to rel 1e-9, this pins the learned predictions
#: bit for bit: a change to training or prediction arithmetic fails here.
PREDICTION_DIGESTS = {
    "single": "1aa99d8dae797c4c076c87790c9630ee07f4d3a2ddaa9e6bdebefdde9e405477",
    "coach": "99b5303df96a9063331a589338e99c27001558b8e559feab1acfc0bebc8a1b97",
    "aggr-coach": "dc9b8ffb48a06be69a10d8672f6fc6f8cb887dd186297b842e1b0dc0a43485b1",
}


@pytest.fixture(scope="module")
def golden_trace():
    """The fixed-seed trace of ``tests/test_golden_trace.py``."""
    config = TraceGeneratorConfig(n_vms=500, n_days=10, seed=1234,
                                  n_subscriptions=30, servers_per_cluster=1)
    return TraceGenerator(config).generate()


def _prediction_digest(trace, policy):
    """Train *policy*'s model as ``simulate_policy`` does for the golden
    config (7-day history, three trees) and hash its out-of-bag errors and
    every VM's prediction: once from per-VM ``predict`` and once from the
    rows of one ``predict_many`` call over the whole trace, in the same
    byte layout.  Returns both digests."""
    history, _future = trace.split_at(7 * SLOTS_PER_DAY)
    model = build_prediction_model(policy, history.long_running().vms,
                                   n_estimators=3)
    batch = model.predict_many(trace.vms)
    per_vm, batched = hashlib.sha256(), hashlib.sha256()

    def feed(digest, vm, oversubscribable, pairs):
        digest.update(f"{vm.vm_id}:{oversubscribable};".encode())
        for pair in pairs:
            for values in pair:
                digest.update(np.asarray(values, dtype="<f8").tobytes())

    for digest in (per_vm, batched):
        for key, error in sorted(model.report.oob_error.items()):
            digest.update(f"{key}={error!r};".encode())
    for row, vm in enumerate(trace.vms):
        prediction = model.predict(vm)
        feed(per_vm, vm, prediction.oversubscribable,
             [(prediction.percentile[resource], prediction.maximum[resource])
              for resource in ALL_RESOURCES])
        feed(batched, vm, bool(batch.oversubscribable[row]),
             zip(batch.percentile[row], batch.maximum[row]))
    return per_vm.hexdigest(), batched.hexdigest()


@pytest.mark.parametrize("policy", sorted(PREDICTION_DIGESTS))
def test_learned_predictions_are_pinned_bitwise(golden_trace, policy):
    per_vm, batched = _prediction_digest(golden_trace, STANDARD_POLICIES[policy])
    assert per_vm == PREDICTION_DIGESTS[policy]
    assert batched == PREDICTION_DIGESTS[policy]
