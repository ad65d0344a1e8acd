"""Loss functions.

Each loss exposes ``forward(predictions, targets) -> float`` and
``backward() -> ndarray`` returning the gradient of the mean loss with respect
to the predictions.  The paper trains with mean squared error.
"""
from __future__ import annotations

import numpy as np


class Loss:
    """Base class for losses."""

    def __init__(self):
        self._cache = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)

    @staticmethod
    def _validate(predictions: np.ndarray, targets: np.ndarray):
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"predictions shape {predictions.shape} does not match targets "
                f"shape {targets.shape}"
            )
        if predictions.size == 0:
            raise ValueError("cannot compute a loss over empty arrays")
        return predictions, targets


class MeanSquaredError(Loss):
    """Mean squared error, the training loss used in the paper."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = self._validate(predictions, targets)
        difference = predictions - targets
        self._cache = difference
        return float(np.mean(difference**2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        difference = self._cache
        return 2.0 * difference / difference.size
