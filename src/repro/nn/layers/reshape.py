"""Shape-manipulation layer: Flatten."""
from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers.base import Layer, check_forward_called


class Flatten(Layer):
    """Flatten all axes after the batch axis into one."""

    def __init__(self, name: str | None = None):
        super().__init__(name=name)
        self._input_shape: Tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim < 2:
            raise ValueError(f"{self.name}: expected at least 2-D input")
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape = check_forward_called(self._input_shape, self)
        return np.asarray(grad_output, dtype=np.float64).reshape(input_shape)
