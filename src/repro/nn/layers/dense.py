"""Fully connected (dense) layer: the BS network's head."""
from __future__ import annotations

import numpy as np

from repro.nn.initializers import xavier_uniform
from repro.nn.layers.base import Layer, check_forward_called
from repro.utils.seeding import SeedLike


class Dense(Layer):
    """Affine transformation ``y = x @ W + b``.

    ``W`` is Xavier-uniform initialized and ``b`` starts at zero.  Accepts
    inputs of shape ``(batch, in_features)`` or any higher-rank shape whose
    last axis is ``in_features``; the leading axes are preserved.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(name=name, seed=seed)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = self.add_parameter(
            "weight", xavier_uniform((self.in_features, self.out_features), self.rng)
        )
        self.bias = self.add_parameter(
            "bias", np.zeros(self.out_features, dtype=np.float64)
        )
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected last dimension {self.in_features}, "
                f"got {inputs.shape[-1]}"
            )
        self._inputs = inputs
        return inputs @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs = check_forward_called(self._inputs, self)
        grad_output = np.asarray(grad_output, dtype=np.float64)

        flat_in = inputs.reshape(-1, self.in_features)
        flat_grad = grad_output.reshape(-1, self.out_features)

        self.weight.grad += flat_in.T @ flat_grad
        self.bias.grad += flat_grad.sum(axis=0)
        grad_input = grad_output @ self.weight.value.T
        return grad_input.reshape(inputs.shape)
