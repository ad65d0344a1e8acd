"""Evaluation metrics used to report prediction quality.

The paper reports validation accuracy as the root mean squared error (RMSE) of
the predicted received power in dB.
"""
from __future__ import annotations

import numpy as np


def _validate(predictions, targets):
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions shape {predictions.shape} does not match targets "
            f"shape {targets.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute a metric over empty arrays")
    return predictions, targets


def mean_squared_error(predictions, targets) -> float:
    """Mean squared error."""
    predictions, targets = _validate(predictions, targets)
    return float(np.mean((predictions - targets) ** 2))


def root_mean_squared_error(predictions, targets) -> float:
    """Root mean squared error (the paper's validation metric, in dB)."""
    return float(np.sqrt(mean_squared_error(predictions, targets)))
