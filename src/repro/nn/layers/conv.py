"""2-D convolution implemented with stride-tricks im2col.

The UE-side model of the paper is a small CNN operating on depth images, so a
single, well-tested Conv2D layer (NCHW layout, configurable stride and
padding) is the workhorse of the image branch.

The hot path lowers convolution to batched GEMMs: patches are gathered with
:func:`numpy.lib.stride_tricks.sliding_window_view` into a column matrix
(``im2col``) that is contracted against the flattened kernel with
``np.matmul`` (one broadcasted GEMM over the batch axis).  The column buffer
and the zero-bordered padding buffer are cached on the layer and reused
across steps with the same geometry, so steady-state training does no
per-step patch or padding allocation.

The backward pass computes the weight gradient as one GEMM against the
cached columns and the input gradient as a transposed convolution: the
output gradient is zero-dilated by the stride into a persistent buffer with
``k - 1 - padding`` leading zeros (:func:`dilate`), lowered with a stride-1
``im2col`` and contracted against the spatially flipped, channel-swapped
kernel (:func:`transposed_kernel_matrix`).  That replaces the ``col2im``
scatter-add of a ``Wᵀ · grad`` column matrix; :func:`col2im` itself is kept as
the inverse of :func:`im2col` for tests and tools.  A layer built with
``needs_input_grad=False`` (the first layer of a network, whose input is
data) skips the input gradient entirely.  The same matmul formulations
generalize to a leading fleet-member axis bitwise-identically — see
:mod:`repro.nn.stacked` for the stacked-weight variants with which the
stacked UE bank trains every UE.

Naive per-output-pixel loop implementations are retained as
``conv2d_forward_reference`` / ``conv2d_backward_reference``.  They are the
correctness oracle for the vectorized path (see
``tests/nn/test_kernel_equivalence.py``) and the baseline of the kernel
micro-benchmarks (``benchmarks/test_bench_nn_kernels.py``); they must never
be called from the training path.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, check_forward_called
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

    Training does not call it (:meth:`Conv2D.backward` computes the input
    gradient as a transposed convolution); it stays as the adjoint of
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
    """2-D convolution over inputs of shape ``(batch, channels, H, W)``.

    Args:
        cache_patches: reuse the im2col column buffer and the padding and
            dilation buffers across passes with the same input geometry (the
            steady state of minibatch training).  Disable for layers fed
            wildly varying shapes to avoid holding the largest buffer alive.
        needs_input_grad: compute the gradient with respect to the input in
            :meth:`backward`.  ``False`` suits a network's first layer, whose
            input is data: backward then only accumulates the parameter
            gradients and returns ``None``.
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
        cache_patches: bool = True,
        needs_input_grad: bool = True,
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
        self.cache_patches = bool(cache_patches)
        self.needs_input_grad = bool(needs_input_grad)

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

        self._cols: np.ndarray | None = None
        self._padded: np.ndarray | None = None
        self._dilated: np.ndarray | None = None
        self._input_shape: Tuple[int, int, int, int] | None = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for a given input size."""
        out_h = conv_output_size(
            height, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_output_size(
            width, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return self.out_channels, out_h, out_w

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(
                f"{self.name}: expected 4-D input (batch, channels, H, W), "
                f"got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {inputs.shape[1]}"
            )
        batch, _, height, width = inputs.shape
        _, out_h, out_w = self.output_shape(height, width)

        padded = None
        if self.cache_patches:
            padded = self._padded = padded_buffer(
                inputs.shape, self.padding, self._padded
            )
        buffer = self._cols if self.cache_patches else None
        cols = im2col(
            inputs,
            self.kernel_size,
            self.stride,
            self.padding,
            out=buffer,
            padded=padded,
        )
        self._cols = cols
        self._input_shape = inputs.shape

        kernel_matrix = self.weight.value.reshape(self.out_channels, -1)
        # (batch, out_channels, out_h * out_w): one broadcasted GEMM over the
        # batch axis.  np.matmul here is bitwise-identical per batch slice to
        # np.dot, which keeps the stacked fleet variants in repro.nn.stacked
        # exactly equal to this path member-for-member.
        output = np.matmul(kernel_matrix, cols)
        if self.use_bias:
            output += self.bias.value[None, :, None]
        return output.reshape(batch, self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        cols = check_forward_called(self._cols, self)
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch = grad_output.shape[0]
        # Explicit spatial size: reshape(-1) cannot infer it for empty batches.
        grad_flat = grad_output.reshape(
            batch, self.out_channels, grad_output.shape[2] * grad_output.shape[3]
        )

        # Per-batch GEMMs reduced over the batch axis; matches the stacked
        # fleet kernels bitwise (see repro.nn.stacked).
        grad_kernel = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += grad_kernel.reshape(self.weight.value.shape)
        if self.use_bias:
            self.bias.grad += grad_flat.sum(axis=(0, 2))
        if not self.needs_input_grad:
            return None

        # Input gradient as a transposed convolution: one GEMM of the
        # flipped kernel against the stride-1 patches of the dilated
        # gradient, already cropped to the unpadded input.
        dilated = dilate(
            grad_output,
            self._input_shape[2:],
            self.kernel_size,
            self.stride,
            self.padding,
            out=self._dilated,
        )
        if self.cache_patches:
            self._dilated = dilated
        dilated_cols = im2col(dilated, self.kernel_size, (1, 1), (0, 0))
        grad_inputs = np.matmul(
            transposed_kernel_matrix(self.weight.value), dilated_cols
        )
        return grad_inputs.reshape(self._input_shape)
