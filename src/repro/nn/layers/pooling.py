"""Average pooling.

Average pooling is the compression knob of the paper: the UE pools the CNN
output with a ``wH x wW`` window before transmitting it to the BS, trading
feature-map resolution for uplink payload size and privacy.

:func:`average_pool` is a pure reshape-trick kernel: the
``(batch, channels, H, W)`` input is viewed as
``(batch, channels, out_h, ph, out_w, pw)`` windows and reduced along the
window axes in one pass.  It is the only pooling forward: the UE network's
plan (:mod:`repro.fleet.bank`) pools the cut layer with it (and
differentiates the pooling itself), and Table 1 pools CNN output images with
it.

Naive per-window loop implementations are retained as ``*_reference``
functions — the correctness oracle for the vectorized kernels and the
baseline of the kernel micro-benchmarks; never call them from the training
path.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.layers.conv import _pair


def _check_divisible(
    name: str, height: int, width: int, pool: Tuple[int, int]
) -> Tuple[int, int]:
    ph, pw = pool
    if height % ph != 0 or width % pw != 0:
        raise ValueError(
            f"{name}: input {height}x{width} not divisible by pool {ph}x{pw}"
        )
    return height // ph, width // pw


def avgpool2d_forward_reference(
    inputs: np.ndarray, pool_size: Tuple[int, int]
) -> np.ndarray:
    """Naive per-window average pooling (correctness oracle, never hot path)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, channels, height, width = inputs.shape
    ph, pw = pool_size
    out_h, out_w = _check_divisible("avgpool2d_forward_reference", height, width, pool_size)
    output = np.zeros((batch, channels, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for c in range(channels):
            for i in range(out_h):
                for j in range(out_w):
                    window = inputs[
                        b, c, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw
                    ]
                    output[b, c, i, j] = window.mean()
    return output


def avgpool2d_backward_reference(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    pool_size: Tuple[int, int],
) -> np.ndarray:
    """Naive average-pooling backward pass (correctness oracle)."""
    grad_output = np.asarray(grad_output, dtype=np.float64)
    ph, pw = pool_size
    grad = np.zeros(input_shape, dtype=np.float64)
    batch, channels, _, _ = input_shape
    out_h, out_w = grad_output.shape[2], grad_output.shape[3]
    scale = 1.0 / (ph * pw)
    for b in range(batch):
        for c in range(channels):
            for i in range(out_h):
                for j in range(out_w):
                    grad[
                        b, c, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw
                    ] += grad_output[b, c, i, j] * scale
    return grad


def average_pool(
    inputs: np.ndarray, pool_size: int | Tuple[int, int]
) -> np.ndarray:
    """Non-overlapping average pooling of ``(batch, channels, H, W)`` inputs.

    ``H`` and ``W`` must be divisible by the pool size; this is the regime
    used in the paper (40x40 feature maps pooled by 1, 4, 10 or 40).

    Returns:
        ``(batch, channels, H / ph, W / pw)`` window means.
    """
    ph, pw = _pair(pool_size)
    if ph <= 0 or pw <= 0:
        raise ValueError("pool_size entries must be positive")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4:
        raise ValueError(f"average_pool: expected 4-D input, got {inputs.shape}")
    batch, channels, height, width = inputs.shape
    out_h, out_w = _check_divisible("average_pool", height, width, (ph, pw))
    reshaped = inputs.reshape(batch, channels, out_h, ph, out_w, pw)
    return reshaped.mean(axis=(3, 5))
