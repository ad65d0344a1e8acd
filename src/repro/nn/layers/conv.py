"""2-D convolution: the layer's parameters and the im2col kernels.

The UE-side model of the paper is a small CNN operating on depth images, and
every convolution of it is a 'same' convolution: stride 1, an odd square
``k x k`` kernel and ``k // 2`` zero padding on each side, so the output has
the input's spatial size.  :class:`Conv2D` holds one convolution's
parameters (NCHW layout) and their initialization; it computes nothing.  The
UE network runs as one plan over stacked weights (:mod:`repro.fleet.bank`
over the kernels of :mod:`repro.nn.stacked`), for training and for inference
alike.

This module keeps the building blocks those kernels lower convolution to.
Patches are gathered with :func:`numpy.lib.stride_tricks.sliding_window_view`
into a column matrix (:func:`im2col`) that is contracted against the
flattened kernel with ``np.matmul``; :func:`padded_buffer` keeps a
zero-bordered padding buffer reusable across passes.  The input gradient is
the same kind of convolution: the :func:`im2col` of the output gradient,
contracted against the spatially flipped, channel-swapped kernel
(:func:`transposed_kernel_matrix`).  :func:`col2im`, the adjoint of
:func:`im2col`, computes nothing in the program.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import he_uniform
from repro.nn.layers.base import Layer
from repro.utils.seeding import SeedLike


def im2col(
    images: np.ndarray,
    kernel_size: int,
    out: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rearrange the patches of a 'same' convolution into columns.

    Args:
        images: array of shape ``(batch, channels, height, width)``.
        kernel_size: the odd kernel side ``k``; the images are zero-padded by
            ``p = k // 2`` on each side.
        out: optional preallocated output buffer of the correct shape and
            dtype; reused when compatible, otherwise a fresh array is
            allocated.
        padded: optional zero-bordered buffer of shape
            ``(batch, channels, height + 2 p, width + 2 p)``, as returned by
            :func:`padded_buffer`; only its interior is written, so its
            border must hold zeros.  When absent or incompatible the input
            is padded into a fresh array.

    Returns:
        Array of shape ``(batch, channels * k * k, height * width)``.
    """
    batch, channels, height, width = images.shape
    k, p = kernel_size, kernel_size // 2

    if not p:
        padded = images
    elif (
        padded is None
        or padded.shape != (batch, channels, height + 2 * p, width + 2 * p)
        or padded.dtype != images.dtype
    ):
        padded = np.pad(images, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant")
    else:
        padded[:, :, p : p + height, p : p + width] = images
    # (batch, channels, height, width, k, k) strided view — no copy yet.
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))

    shape = (batch, channels * k * k, height * width)
    if (
        out is None
        or out.shape != shape
        or out.dtype != images.dtype
        or not out.flags["C_CONTIGUOUS"]  # reshape below must be a view
    ):
        out = np.empty(shape, dtype=images.dtype)
    # Single strided copy into the (batch, C, k, k, height, width) layout.
    out.reshape(batch, channels, k, k, height, width)[...] = windows.transpose(
        0, 1, 4, 5, 2, 3
    )
    return out


def padded_buffer(
    images_shape: Tuple[int, ...],
    kernel_size: int,
    previous: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Zero-bordered padding buffer for :func:`im2col`'s ``padded`` argument.

    Returns ``previous`` when it already has the padded shape (its border is
    still zero: :func:`im2col` only ever writes the interior), a fresh zero
    array otherwise, and ``None`` for a ``1 x 1`` kernel, which pads nothing.
    """
    p = kernel_size // 2
    if not p:
        return None
    batch, channels, height, width = images_shape
    shape = (batch, channels, height + 2 * p, width + 2 * p)
    if previous is not None and previous.shape == shape:
        return previous
    return np.zeros(shape)


def transposed_kernel_matrix(weights: np.ndarray) -> np.ndarray:
    """Flipped, channel-swapped kernel as a GEMM operand.

    ``weights`` is ``(..., out_channels, in_channels, k, k)``; the result is
    ``(..., in_channels, out_channels * k * k)``, matching the rows of the
    :func:`im2col` of an output gradient.
    """
    in_channels = weights.shape[-3]
    flipped = weights[..., ::-1, ::-1].swapaxes(-4, -3)
    return flipped.reshape(weights.shape[:-4] + (in_channels, -1))


def col2im(
    cols: np.ndarray, image_shape: Tuple[int, int, int, int], kernel_size: int
) -> np.ndarray:
    """Inverse of :func:`im2col`, accumulating overlapping patches.

    Nothing in the program calls it (the input gradient is a convolution of
    the output gradient); it stays as the adjoint of :func:`im2col` for
    tests and tools.  The scatter-add runs over the ``k * k`` kernel offsets
    (not over output pixels): overlapping windows alias the same padded
    pixels, so the accumulation cannot be expressed as one strided copy.
    """
    batch, channels, height, width = image_shape
    k, p = kernel_size, kernel_size // 2
    cols = cols.reshape(batch, channels, k, k, height, width)
    padded = np.zeros(
        (batch, channels, height + 2 * p, width + 2 * p), dtype=cols.dtype
    )
    for i in range(k):
        for j in range(k):
            padded[:, :, i : i + height, j : j + width] += cols[:, :, i, j, :, :]
    return padded[:, :, p : p + height, p : p + width]


class Conv2D(Layer):
    """The parameters of a 'same' 2-D convolution over ``(batch, channels, H, W)``.

    Holds the ``(out_channels, in_channels, k, k)`` kernel, He-uniform
    initialized, and the zero-initialized bias; the stacked kernels of
    :mod:`repro.nn.stacked` compute with them.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(name=name, seed=seed)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        odd = isinstance(kernel_size, (int, np.integer)) and kernel_size % 2 == 1
        if not odd or kernel_size <= 0:
            raise ValueError(
                f"a 'same' convolution needs a positive odd kernel size, "
                f"got {kernel_size!r}"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        k = self.kernel_size
        self.weight = self.add_parameter(
            "weight", he_uniform((self.out_channels, self.in_channels, k, k), self.rng)
        )
        self.bias = self.add_parameter(
            "bias", np.zeros(self.out_channels, dtype=np.float64)
        )
