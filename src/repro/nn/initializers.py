"""Weight initialization schemes for the numpy neural-network substrate.

Initializers are plain functions ``(shape, rng) -> ndarray`` that the layers
call directly: :class:`~repro.nn.layers.conv.Conv2D` draws its kernel with
:func:`he_uniform`, :class:`~repro.nn.layers.dense.Dense` its weight and the
recurrent layers their input kernels with :func:`xavier_uniform`, and the
recurrent layers their recurrent kernels with :func:`orthogonal`.  Biases
start at zero (the LSTM's forget-gate bias at one).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def _fan_in_fan_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute fan-in and fan-out for dense and convolutional kernels.

    Dense kernels are ``(in, out)``; convolutional kernels are
    ``(out_channels, in_channels, kh, kw)``.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive_field = int(np.prod(shape[2:]))
    fan_out = shape[0] * receptive_field
    fan_in = shape[1] * receptive_field
    return fan_in, fan_out


def xavier_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initializer."""
    fan_in, fan_out = _fan_in_fan_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) uniform initializer, suited for ReLU networks."""
    fan_in, _ = _fan_in_fan_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def orthogonal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initializer, recommended for recurrent kernels."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise ValueError("orthogonal initializer requires at least a 2-D shape")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Make the decomposition unique (and the distribution uniform over the
    # orthogonal group) by fixing the signs of the diagonal of R.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].reshape(shape).astype(np.float64)

