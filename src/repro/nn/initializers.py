"""Weight initialization schemes for the numpy neural-network substrate.

Initializers are plain callables ``(shape, rng) -> ndarray`` registered under
string names so that layer constructors can accept either a name or a custom
callable.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Initializer = Callable[[Sequence[int], np.random.Generator], np.ndarray]


def zeros(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """All-zero initializer, used for biases."""
    del rng
    return np.zeros(shape, dtype=np.float64)


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


_REGISTRY: dict[str, Initializer] = {
    "zeros": zeros,
    "xavier_uniform": xavier_uniform,
    "glorot_uniform": xavier_uniform,
    "he_uniform": he_uniform,
    "orthogonal": orthogonal,
}


def get_initializer(name_or_fn: str | Initializer) -> Initializer:
    """Resolve an initializer from a registry name or pass a callable through.

    Raises:
        KeyError: if the name is unknown.
    """
    if callable(name_or_fn):
        return name_or_fn
    try:
        return _REGISTRY[name_or_fn]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown initializer {name_or_fn!r}; known: {known}") from exc
