"""Prediction substrate: trees, forests, EWMA, LSTM, and the Coach predictors."""

from repro.prediction.buckets import (
    BUCKET_WIDTH,
    MEMORY_GRANULARITY_GB,
    bucket_centers,
    bucketize,
    bucketize_array,
    round_memory_up,
)
from repro.prediction.contention import ContentionForecast, TwoLevelContentionPredictor
from repro.prediction.ewma import EWMAPredictor, ewma_series, one_step_errors
from repro.prediction.features import FeatureEncoder, GroupHistory, HistoryIndex
from repro.prediction.forest import RandomForestRegressor
from repro.prediction.lstm import LSTMConfig, LSTMPredictor, build_sequences
from repro.prediction.tree import DecisionTreeRegressor
from repro.prediction.utilization_model import (
    LongTermUtilizationModel,
    NoOversubscriptionModel,
    OracleUtilizationModel,
    TrainingReport,
    WindowPredictionBatch,
    WindowUtilizationPrediction,
)

__all__ = [
    "BUCKET_WIDTH",
    "ContentionForecast",
    "DecisionTreeRegressor",
    "EWMAPredictor",
    "FeatureEncoder",
    "GroupHistory",
    "HistoryIndex",
    "LSTMConfig",
    "LSTMPredictor",
    "LongTermUtilizationModel",
    "MEMORY_GRANULARITY_GB",
    "NoOversubscriptionModel",
    "OracleUtilizationModel",
    "RandomForestRegressor",
    "TrainingReport",
    "TwoLevelContentionPredictor",
    "WindowPredictionBatch",
    "WindowUtilizationPrediction",
    "bucket_centers",
    "bucketize",
    "bucketize_array",
    "build_sequences",
    "ewma_series",
    "one_step_errors",
    "round_memory_up",
]
