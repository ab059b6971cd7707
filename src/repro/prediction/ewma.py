"""Exponentially weighted moving average (EWMA) short-term predictor.

Coach's local prediction component uses a two-level scheme: an EWMA predicts
the next 20-second monitoring interval, while an LSTM predicts the next five
minutes (Section 3.4).  The EWMA works well because resource behaviour tends
to be stable over short periods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class EWMAPredictor:
    """Online EWMA over utilization samples.

    ``alpha`` is the weight of the newest observation (the paper uses 0.5,
    updated every 20-second monitoring interval).
    """

    def __init__(self, alpha: float = 0.5, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._level: Optional[float] = initial

    @property
    def level(self) -> Optional[float]:
        """Current smoothed estimate (``None`` before the first update)."""
        return self._level

    def update(self, observation: float) -> float:
        """Fold in one observation and return the updated estimate."""
        value = float(observation)
        if self._level is None:
            self._level = value
        else:
            self._level = self.alpha * value + (1.0 - self.alpha) * self._level
        return self._level

    def predict(self, horizon: int = 1) -> float:
        """Predict the utilization *horizon* steps ahead.

        An EWMA is a level-only model, so the forecast is flat; the horizon
        argument exists for interface parity with the LSTM predictor.
        """
        if self._level is None:
            raise RuntimeError("predict() called before any update")
        return self._level

    def reset(self) -> None:
        self._level = None


def ewma_series(values: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Vectorised EWMA of a whole series (offline helper for the evaluation)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    if values.size == 0:
        return out
    level = values[0]
    out[0] = level
    for i in range(1, values.size):
        level = alpha * values[i] + (1.0 - alpha) * level
        out[i] = level
    return out


def one_step_errors(values: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Absolute one-step-ahead EWMA prediction errors for a series."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return np.empty(0)
    smoothed = ewma_series(values, alpha)
    return np.abs(values[1:] - smoothed[:-1])
