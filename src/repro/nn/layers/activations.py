"""Element-wise activations: ReLU, and the sigmoid step of the UE CNN."""
from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer, check_forward_called


class ReLU(Layer):
    """Rectified linear unit ``max(0, x)``."""

    def __init__(self, name: str | None = None):
        super().__init__(name=name)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = check_forward_called(self._mask, self)
        return np.asarray(grad_output, dtype=np.float64) * mask


class Sigmoid(Layer):
    """The logistic sigmoid step that closes the UE CNN.

    It computes nothing itself: the UE network's plan
    (:func:`repro.fleet.bank.ue_plan`) runs it as :func:`stable_sigmoid`.
    """


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid that avoids overflow for large |x|.

    Branch-free: ``e = exp(-|x|)`` never overflows, and the sigmoid is
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below.  Each element
    gets exactly the operations of the masked two-branch form, so the result
    is bitwise the same without the boolean gathers and scatters.  The
    divisions run in place, which keeps the peak at about two input-sized
    arrays (the stacked UE bank calls this on every member at once).
    """
    e = np.exp(-np.abs(x))
    out = np.add(e, 1.0)
    np.divide(e, out, out=e)
    np.divide(1.0, out, out=out)
    np.copyto(out, e, where=x < 0)
    return np.asarray(out, dtype=np.float64)
