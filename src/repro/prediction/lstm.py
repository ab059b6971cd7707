"""From-scratch numpy LSTM for short-horizon utilization forecasting.

Coach's local prediction component uses an LSTM to predict utilization five
minutes ahead from the maximum and average utilization of the five preceding
5-minute windows (Section 3.6).  This module implements a small single-layer
LSTM with a linear head, trained with truncated BPTT and Adam, entirely in
numpy -- no deep-learning framework is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class LSTMConfig:
    """Hyper-parameters of the utilization LSTM."""

    input_size: int = 2          # (max, mean) utilization per 5-minute window
    hidden_size: int = 16
    sequence_length: int = 5     # five preceding 5-minute windows
    learning_rate: float = 0.01
    epochs: int = 60
    clip_norm: float = 5.0
    seed: int = 0


class LSTMPredictor:
    """Single-layer LSTM regressor with a scalar output in ``[0, 1]``."""

    def __init__(self, config: Optional[LSTMConfig] = None):
        self.config = config or LSTMConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        scale = 1.0 / np.sqrt(cfg.hidden_size)
        concat = cfg.input_size + cfg.hidden_size
        # Gate weight matrices: input, forget, cell, output.
        self.weights: Dict[str, np.ndarray] = {
            name: rng.normal(0.0, scale, size=(concat, cfg.hidden_size))
            for name in ("Wi", "Wf", "Wg", "Wo")
        }
        self.biases: Dict[str, np.ndarray] = {
            name: np.zeros(cfg.hidden_size) for name in ("bi", "bf", "bg", "bo")
        }
        # Forget-gate bias initialised positive: standard trick for stability.
        self.biases["bf"] += 1.0
        self.head_w = rng.normal(0.0, scale, size=(cfg.hidden_size, 1))
        self.head_b = np.zeros(1)
        self._adam_m: Dict[str, np.ndarray] = {}
        self._adam_v: Dict[str, np.ndarray] = {}
        self._adam_t = 0
        self.training_loss_: List[float] = []

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def _forward(self, batch: np.ndarray) -> Tuple[np.ndarray, List[Dict[str, np.ndarray]]]:
        """Run the LSTM over a batch of sequences.

        ``batch`` has shape ``(n, sequence_length, input_size)``.  Returns the
        scalar predictions and the per-step cache needed for backprop.
        """
        cfg = self.config
        n = batch.shape[0]
        h = np.zeros((n, cfg.hidden_size))
        c = np.zeros((n, cfg.hidden_size))
        caches: List[Dict[str, np.ndarray]] = []
        for t in range(cfg.sequence_length):
            x_t = batch[:, t, :]
            z = np.concatenate([x_t, h], axis=1)
            i = _sigmoid(z @ self.weights["Wi"] + self.biases["bi"])
            f = _sigmoid(z @ self.weights["Wf"] + self.biases["bf"])
            g = np.tanh(z @ self.weights["Wg"] + self.biases["bg"])
            o = _sigmoid(z @ self.weights["Wo"] + self.biases["bo"])
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            caches.append({"z": z, "i": i, "f": f, "g": g, "o": o,
                           "c_prev": c, "c": c_new})
            h, c = h_new, c_new
        logits = h @ self.head_w + self.head_b
        prediction = _sigmoid(logits).reshape(-1)
        caches.append({"h_last": h, "logits": logits})
        return prediction, caches

    def _backward(self, batch: np.ndarray, targets: np.ndarray,
                  prediction: np.ndarray,
                  caches: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
        cfg = self.config
        n = batch.shape[0]
        grads = {key: np.zeros_like(val) for key, val in self.weights.items()}
        grads.update({key: np.zeros_like(val) for key, val in self.biases.items()})
        grads["head_w"] = np.zeros_like(self.head_w)
        grads["head_b"] = np.zeros_like(self.head_b)

        head_cache = caches[-1]
        h_last = head_cache["h_last"]
        # d(MSE)/d(prediction) with sigmoid output.
        d_pred = 2.0 * (prediction - targets) / n
        d_logits = (d_pred * prediction * (1.0 - prediction)).reshape(-1, 1)
        grads["head_w"] += h_last.T @ d_logits
        grads["head_b"] += d_logits.sum(axis=0)

        dh = d_logits @ self.head_w.T
        dc = np.zeros((n, cfg.hidden_size))
        for t in range(cfg.sequence_length - 1, -1, -1):
            cache = caches[t]
            i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
            c, c_prev, z = cache["c"], cache["c_prev"], cache["z"]
            tanh_c = np.tanh(c)

            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_prev = dc * f

            d_ai = di * i * (1.0 - i)
            d_af = df * f * (1.0 - f)
            d_ag = dg * (1.0 - g ** 2)
            d_ao = do * o * (1.0 - o)

            grads["Wi"] += z.T @ d_ai
            grads["Wf"] += z.T @ d_af
            grads["Wg"] += z.T @ d_ag
            grads["Wo"] += z.T @ d_ao
            grads["bi"] += d_ai.sum(axis=0)
            grads["bf"] += d_af.sum(axis=0)
            grads["bg"] += d_ag.sum(axis=0)
            grads["bo"] += d_ao.sum(axis=0)

            dz = (d_ai @ self.weights["Wi"].T + d_af @ self.weights["Wf"].T
                  + d_ag @ self.weights["Wg"].T + d_ao @ self.weights["Wo"].T)
            dh = dz[:, cfg.input_size:]
            dc = dc_prev
        return grads

    def _adam_step(self, grads: Dict[str, np.ndarray]) -> None:
        cfg = self.config
        params: Dict[str, np.ndarray] = {**self.weights, **self.biases,
                                         "head_w": self.head_w, "head_b": self.head_b}
        # Global norm clipping.
        total_norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        scale = min(1.0, cfg.clip_norm / (total_norm + 1e-12))

        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for key, param in params.items():
            grad = grads[key] * scale
            m = self._adam_m.setdefault(key, np.zeros_like(param))
            v = self._adam_v.setdefault(key, np.zeros_like(param))
            m[:] = beta1 * m + (1 - beta1) * grad
            v[:] = beta2 * v + (1 - beta2) * grad ** 2
            m_hat = m / (1 - beta1 ** self._adam_t)
            v_hat = v / (1 - beta2 ** self._adam_t)
            param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(self, sequences: np.ndarray, targets: np.ndarray,
            epochs: Optional[int] = None) -> "LSTMPredictor":
        """Train on ``(n, sequence_length, input_size)`` sequences."""
        sequences = np.asarray(sequences, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if sequences.ndim != 3:
            raise ValueError("sequences must be 3-D (n, seq_len, input_size)")
        if sequences.shape[1] != self.config.sequence_length:
            raise ValueError("sequence length mismatch")
        if sequences.shape[2] != self.config.input_size:
            raise ValueError("input size mismatch")
        if targets.shape[0] != sequences.shape[0]:
            raise ValueError("targets must align with sequences")

        self.training_loss_ = []
        for _ in range(epochs if epochs is not None else self.config.epochs):
            prediction, caches = self._forward(sequences)
            loss = float(np.mean((prediction - targets) ** 2))
            self.training_loss_.append(loss)
            grads = self._backward(sequences, targets, prediction, caches)
            self._adam_step(grads)
        return self

    def predict(self, sequences: np.ndarray) -> np.ndarray:
        sequences = np.asarray(sequences, dtype=np.float64)
        if sequences.ndim == 2:
            sequences = sequences[np.newaxis, ...]
        prediction, _ = self._forward(sequences)
        return prediction

    def parameter_count(self) -> int:
        count = sum(w.size for w in self.weights.values())
        count += sum(b.size for b in self.biases.values())
        count += self.head_w.size + self.head_b.size
        return int(count)

    def memory_bytes(self) -> int:
        """Approximate in-memory model size (Section 4.5 reports ~25 KB)."""
        return self.parameter_count() * 8


def build_sequences(series: np.ndarray, sequence_length: int = 5,
                    window: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Build (max, mean) training sequences from a per-slot utilization series.

    Consecutive groups of ``window`` slots are aggregated into (max, mean)
    pairs; each training example is ``sequence_length`` consecutive pairs and
    the target is the maximum utilization of the following group.
    """
    series = np.asarray(series, dtype=np.float64)
    if window > 1:
        n_groups = series.size // window
        trimmed = series[: n_groups * window].reshape(n_groups, window)
        maxima = trimmed.max(axis=1)
        means = trimmed.mean(axis=1)
    else:
        maxima = series
        means = series
    features = np.stack([maxima, means], axis=1)
    n_examples = features.shape[0] - sequence_length
    if n_examples <= 0:
        return (np.empty((0, sequence_length, 2)), np.empty(0))
    sequences = np.stack([features[i:i + sequence_length] for i in range(n_examples)])
    targets = maxima[sequence_length:]
    return sequences, targets
