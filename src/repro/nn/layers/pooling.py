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
"""
from __future__ import annotations

from typing import Tuple

import numpy as np


def _pair(value: int | Tuple[int, int]) -> Tuple[int, int]:
    """Normalize an int or 2-tuple into a 2-tuple of ints."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError("expected a 2-tuple")
        return int(value[0]), int(value[1])
    return int(value), int(value)


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
    if height % ph != 0 or width % pw != 0:
        raise ValueError(
            f"average_pool: input {height}x{width} not divisible by pool {ph}x{pw}"
        )
    reshaped = inputs.reshape(batch, channels, height // ph, ph, width // pw, pw)
    return reshaped.mean(axis=(3, 5))
