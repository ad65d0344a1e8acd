"""2-D convolution: the layer's parameters and the im2col kernels.

The UE-side model of the paper is a small CNN operating on depth images.
:class:`Conv2D` holds one convolution's parameters (NCHW layout,
configurable stride and padding), their initialization and geometry; it
computes nothing.  The UE network runs as one plan over stacked weights
(:mod:`repro.fleet.bank` over the kernels of :mod:`repro.nn.stacked`), for
training and for inference alike.

This module keeps the building blocks those kernels lower convolution to.
Patches are gathered with :func:`numpy.lib.stride_tricks.sliding_window_view`
into a column matrix (:func:`im2col`) that is contracted against the
flattened kernel with ``np.matmul``; :func:`padded_buffer` keeps a
zero-bordered padding buffer reusable across passes.  The input gradient is
a transposed convolution: the output gradient is zero-dilated by the stride
into a reusable buffer with ``k - 1 - padding`` leading zeros
(:func:`dilate`), lowered with a stride-1 :func:`im2col` and contracted
against the spatially flipped, channel-swapped kernel
(:func:`transposed_kernel_matrix`).  :func:`col2im`, the inverse of
:func:`im2col`, computes nothing in the program.

Naive per-output-pixel loop implementations are retained as
``conv2d_forward_reference`` / ``conv2d_backward_reference``.  They are the
correctness oracle of the vectorized kernels (see
``tests/nn/test_kernel_equivalence.py``) and the baseline of the kernel
micro-benchmarks (``benchmarks/test_bench_nn_kernels.py``); they must never
be called from the training path.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer
from repro.utils.seeding import SeedLike


def _pair(value: int | Tuple[int, int]) -> Tuple[int, int]:
    """Normalize an int or 2-tuple into a 2-tuple of ints."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError("expected a 2-tuple")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rearrange image patches into columns (stride-tricks based).

    Args:
        images: array of shape ``(batch, channels, height, width)``.
        kernel_size: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)`` zero padding on each side.
        out: optional preallocated output buffer of the correct shape and
            dtype; reused when compatible, otherwise a fresh array is
            allocated.
        padded: optional zero-bordered buffer of shape
            ``(batch, channels, height + 2 ph, width + 2 pw)``, as returned by
            :func:`padded_buffer`; only its interior is written, so its
            border must hold zeros.  When absent or incompatible the input
            is padded into a fresh array.

    Returns:
        Array of shape ``(batch, channels * kh * kw, out_h * out_w)``.
    """
    batch, channels, height, width = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    if not (ph or pw):
        padded = images
    elif (
        padded is None
        or padded.shape != (batch, channels, height + 2 * ph, width + 2 * pw)
        or padded.dtype != images.dtype
    ):
        padded = np.pad(
            images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant"
        )
    else:
        padded[:, :, ph : ph + height, pw : pw + width] = images
    # (batch, channels, out_h, out_w, kh, kw) strided view — no copy yet.
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[
        :, :, ::sh, ::sw, :, :
    ]

    shape = (batch, channels * kh * kw, out_h * out_w)
    if (
        out is None
        or out.shape != shape
        or out.dtype != images.dtype
        or not out.flags["C_CONTIGUOUS"]  # reshape below must be a view
    ):
        out = np.empty(shape, dtype=images.dtype)
    # Single strided copy into the (batch, C, kh, kw, out_h, out_w) layout.
    out.reshape(batch, channels, kh, kw, out_h, out_w)[...] = windows.transpose(
        0, 1, 4, 5, 2, 3
    )
    return out


def padded_buffer(
    images_shape: Tuple[int, ...],
    padding: Tuple[int, int],
    previous: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Zero-bordered padding buffer for :func:`im2col`'s ``padded`` argument.

    Returns ``previous`` when it already has the padded shape (its border is
    still zero: :func:`im2col` only ever writes the interior), a fresh zero
    array otherwise, and ``None`` when there is no padding to hold.
    """
    ph, pw = padding
    if not (ph or pw):
        return None
    batch, channels, height, width = images_shape
    shape = (batch, channels, height + 2 * ph, width + 2 * pw)
    if previous is not None and previous.shape == shape:
        return previous
    return np.zeros(shape)


def _dilated_slices(
    out_size: int, size: int, kernel: int, stride: int, padding: int
) -> Tuple[slice, slice]:
    """``(source, target)`` slices placing one gradient axis in :func:`dilate`.

    Output position ``i`` lands at ``i * stride + kernel - 1 - padding`` of a
    buffer of length ``size + kernel - 1``; positions outside it only ever
    reach the cropped padding border, so they are dropped.
    """
    offset = kernel - 1 - padding
    first = max(0, -(offset // stride))
    end = min(out_size, -(-(size + padding) // stride))
    start = offset + first * stride
    return slice(first, end), slice(start, start + (end - first) * stride, stride)


def dilated_buffer(
    grad_shape: Tuple[int, ...],
    input_size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    previous: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Zero buffer for :func:`dilate`'s ``out`` argument.

    Returns ``previous`` when it already has the dilated shape, a fresh zero
    array otherwise.
    """
    batch, channels = grad_shape[:2]
    shape = (
        batch,
        channels,
        input_size[0] + kernel_size[0] - 1,
        input_size[1] + kernel_size[1] - 1,
    )
    if previous is not None and previous.shape == shape:
        return previous
    return np.zeros(shape)


def dilate(
    grad_output: np.ndarray,
    input_size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Zero-dilate an output gradient for the transposed convolution.

    The stride-1, unpadded correlation of the returned buffer with the
    flipped kernel (:func:`transposed_kernel_matrix`) is the input gradient
    of a convolution with the given geometry, already cropped to the
    ``input_size`` interior.

    Args:
        grad_output: ``(batch, out_channels, out_h, out_w)``.
        input_size: the forward input's ``(H, W)``.
        kernel_size / stride / padding: the forward geometry.
        out: optional buffer from :func:`dilated_buffer` or a previous call
            with the same geometry; reused when its shape matches (only the
            gradient positions are written, the zeros between them stay),
            otherwise a fresh zero array is allocated.

    Returns:
        Array of shape ``(batch, out_channels, H + kh - 1, W + kw - 1)``.
    """
    out_h, out_w = grad_output.shape[2:]
    (height, width), (kh, kw) = input_size, kernel_size
    out = dilated_buffer(grad_output.shape, input_size, kernel_size, out)
    rows, target_rows = _dilated_slices(out_h, height, kh, stride[0], padding[0])
    columns, target_columns = _dilated_slices(out_w, width, kw, stride[1], padding[1])
    out[:, :, target_rows, target_columns] = grad_output[:, :, rows, columns]
    return out


def transposed_kernel_matrix(weights: np.ndarray) -> np.ndarray:
    """Flipped, channel-swapped kernel as a GEMM operand.

    ``weights`` is ``(..., out_channels, in_channels, kh, kw)``; the result
    is ``(..., in_channels, out_channels * kh * kw)``, matching the rows of
    the stride-1 :func:`im2col` of a :func:`dilate` buffer.
    """
    in_channels = weights.shape[-3]
    flipped = weights[..., ::-1, ::-1].swapaxes(-4, -3)
    return flipped.reshape(weights.shape[:-4] + (in_channels, -1))


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`, accumulating overlapping patches.

    Nothing in the program calls it (the input gradient is a transposed
    convolution, see :func:`dilate`); it stays as the adjoint of
    :func:`im2col` for tests and tools.  The scatter-add runs over the
    ``kh * kw`` kernel offsets (not over output pixels): overlapping windows
    alias the same padded pixels, so the accumulation cannot be expressed as
    one strided copy.
    """
    batch, channels, height, width = image_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


def conv2d_forward_reference(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Naive per-output-pixel convolution (correctness oracle, never hot path).

    Args:
        inputs: ``(batch, in_channels, H, W)``.
        weight: ``(out_channels, in_channels, kh, kw)``.
        bias: optional ``(out_channels,)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    output = np.zeros((batch, out_channels, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[
                        b, :, i * sh : i * sh + kh, j * sw : j * sw + kw
                    ]
                    output[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                output[b, oc] += bias[oc]
    return output


def conv2d_backward_reference(
    inputs: np.ndarray,
    weight: np.ndarray,
    grad_output: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Naive convolution backward pass (correctness oracle, never hot path).

    Returns:
        ``(grad_inputs, grad_weight, grad_bias)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    grad_output = np.asarray(grad_output, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = grad_output.shape[2], grad_output.shape[3]

    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight, dtype=np.float64)
    grad_bias = grad_output.sum(axis=(0, 2, 3))
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    g = grad_output[b, oc, i, j]
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    grad_weight[oc] += g * padded[b, :, rows, cols]
                    grad_padded[b, :, rows, cols] += g * weight[oc]
    if ph or pw:
        grad_inputs = grad_padded[:, :, ph : ph + height, pw : pw + width]
    else:
        grad_inputs = grad_padded
    return grad_inputs, grad_weight, grad_bias


class Conv2D(Layer):
    """The parameters of a 2-D convolution over ``(batch, channels, H, W)``.

    Holds the ``(out_channels, in_channels, kh, kw)`` kernel and the bias,
    their initialization and the geometry (stride, padding); the stacked
    kernels of :mod:`repro.nn.stacked` compute with them.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | Tuple[int, int],
        stride: int | Tuple[int, int] = 1,
        padding: int | Tuple[int, int] | str = 0,
        use_bias: bool = True,
        weight_init: str = "he_uniform",
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(name=name, seed=seed)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        if padding == "same":
            if any(s != 1 for s in self.stride):
                raise ValueError("'same' padding requires stride 1")
            if any(k % 2 == 0 for k in self.kernel_size):
                raise ValueError("'same' padding requires odd kernel sizes")
            self.padding = (self.kernel_size[0] // 2, self.kernel_size[1] // 2)
        elif padding == "valid":
            self.padding = (0, 0)
        else:
            self.padding = _pair(padding)
        self.use_bias = bool(use_bias)

        kh, kw = self.kernel_size
        w_init = get_initializer(weight_init)
        self.weight = self.add_parameter(
            "weight", w_init((self.out_channels, self.in_channels, kh, kw), self.rng)
        )
        if self.use_bias:
            self.bias = self.add_parameter(
                "bias", np.zeros(self.out_channels, dtype=np.float64)
            )
        else:
            self.bias = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for a given input size."""
        out_h = conv_output_size(
            height, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_output_size(
            width, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return self.out_channels, out_h, out_w
