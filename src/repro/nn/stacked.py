"""Stacked-weight kernel variants for fleets of identical models.

Every UE of a fleet runs the *same* CNN architecture with its own weights,
so N independent forward/backward passes can be fused into batched GEMMs by
stacking the per-member weights along one extra leading axis.  The functions here are the member-axis generalizations of the single
model kernels in :mod:`repro.nn.layers.conv` and :class:`repro.nn.optim.Adam`;
because both sides use the same ``np.matmul`` lowering and elementwise
update order, the stacked path is bitwise-identical member-for-member to
running each model's own kernels in a Python loop.

The stacked backward mirrors :meth:`Conv2D.backward
<repro.nn.layers.conv.Conv2D.backward>`: the weight gradient contracts the
output gradient against the forward pass's patch matrix, and the input
gradient is a transposed convolution (a zero-dilated gradient, its stride-1
patches, one GEMM against the flipped kernels).  ``needs_input_grad=False``
skips the input gradient, as the first layer of a network does.  The
forward and backward optionally reuse zero-bordered padding and dilation
buffers kept by the caller.

Each batched kernel keeps its member-loop formulation as a ``*_reference``
oracle, used by the equivalence tests (and nothing else).
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.conv import (
    conv_output_size,
    dilate,
    im2col,
    transposed_kernel_matrix,
)


def _stacked_geometry(
    weights: np.ndarray, inputs: np.ndarray, stride, padding
) -> Tuple[int, int]:
    """Output spatial size shared by every member (identical architecture)."""
    kernel_size = weights.shape[3:]
    height, width = inputs.shape[3:]
    out_h = conv_output_size(height, kernel_size[0], stride[0], padding[0])
    out_w = conv_output_size(width, kernel_size[1], stride[1], padding[1])
    return out_h, out_w


def stacked_conv2d_forward(
    weights: np.ndarray,
    biases: Optional[np.ndarray],
    inputs: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    cols_out: Optional[np.ndarray] = None,
    padded_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All members' convolutions in one broadcasted GEMM.

    Args:
        weights: ``(members, out_channels, in_channels, kh, kw)`` stacked
            kernels, one slice per member.
        biases: ``(members, out_channels)`` stacked biases, or ``None``.
        inputs: ``(members, batch, in_channels, H, W)`` per-member inputs.
        stride / padding: shared convolution geometry.
        cols_out: optional reusable patch buffer, as returned by a previous
            call with the same geometry (forwarded to :func:`im2col`).
        padded_out: optional zero-bordered padding buffer for the flattened
            ``(members * batch, ...)`` inputs, from
            :func:`~repro.nn.layers.conv.padded_buffer` (forwarded to
            :func:`im2col` as ``padded``).

    Returns:
        ``(output, cols)`` — output ``(members, batch, out_channels, oh, ow)``
        and the flattened patch matrix ``(members * batch, F, oh * ow)``
        needed by :func:`stacked_conv2d_backward`.
    """
    members, batch = inputs.shape[:2]
    kernel_size = weights.shape[3:]
    out_h, out_w = _stacked_geometry(weights, inputs, stride, padding)
    flat_inputs = inputs.reshape((members * batch,) + inputs.shape[2:])
    cols = im2col(
        flat_inputs, kernel_size, stride, padding, out=cols_out, padded=padded_out
    )
    out_channels = weights.shape[1]
    kernel_matrix = weights.reshape(members, 1, out_channels, -1)
    stacked_cols = cols.reshape(members, batch, cols.shape[1], cols.shape[2])
    output = np.matmul(kernel_matrix, stacked_cols)
    if biases is not None:
        output += biases[:, None, :, None]
    return output.reshape(members, batch, out_channels, out_h, out_w), cols


def stacked_conv2d_backward(
    weights: np.ndarray,
    cols: np.ndarray,
    grad_output: np.ndarray,
    input_shape: Tuple[int, ...],
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    needs_input_grad: bool = True,
    dilated_out: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Gradients of :func:`stacked_conv2d_forward` for every member at once.

    Args:
        weights: the stacked kernels used in the forward pass.
        cols: the patch matrix returned by the forward pass.
        grad_output: ``(members, batch, out_channels, oh, ow)``.
        input_shape: the forward pass's ``inputs.shape``.
        stride / padding: shared convolution geometry.
        needs_input_grad: compute ``grad_inputs``; when ``False`` it is
            returned as ``None``.
        dilated_out: optional dilation buffer for the flattened
            ``(members * batch, ...)`` gradient, from
            :func:`~repro.nn.layers.conv.dilated_buffer` (forwarded to
            :func:`~repro.nn.layers.conv.dilate`).

    Returns:
        ``(grad_inputs, grad_weights, grad_biases)`` with shapes matching
        ``inputs``, ``weights`` and ``(members, out_channels)``.
    """
    members, batch, out_channels = grad_output.shape[:3]
    spatial = grad_output.shape[3] * grad_output.shape[4]
    grad_flat = grad_output.reshape(members, batch, out_channels, spatial)
    stacked_cols = cols.reshape(members, batch, cols.shape[1], cols.shape[2])
    grad_weights = np.matmul(
        grad_flat, stacked_cols.transpose(0, 1, 3, 2)
    ).sum(axis=1).reshape(weights.shape)
    grad_biases = grad_flat.sum(axis=(1, 3))
    if not needs_input_grad:
        return None, grad_weights, grad_biases
    kernel_size = weights.shape[3:]
    dilated = dilate(
        grad_output.reshape((members * batch,) + grad_output.shape[2:]),
        input_shape[3:],
        kernel_size,
        stride,
        padding,
        out=dilated_out,
    )
    dilated_cols = im2col(dilated, kernel_size, (1, 1), (0, 0))
    grad_inputs = np.matmul(
        transposed_kernel_matrix(weights)[:, None],
        dilated_cols.reshape(members, batch, -1, dilated_cols.shape[2]),
    )
    return grad_inputs.reshape(input_shape), grad_weights, grad_biases


def stacked_conv2d_forward_reference(
    weights: np.ndarray,
    biases: Optional[np.ndarray],
    inputs: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Member-loop oracle for :func:`stacked_conv2d_forward`."""
    members, batch = inputs.shape[:2]
    out_channels = weights.shape[1]
    kernel_size = weights.shape[3:]
    out_h, out_w = _stacked_geometry(weights, inputs, stride, padding)
    output = np.empty((members, batch, out_channels, out_h, out_w))
    for member in range(members):
        cols = im2col(inputs[member], kernel_size, stride, padding)
        kernel_matrix = weights[member].reshape(out_channels, -1)
        member_out = np.matmul(kernel_matrix, cols)
        if biases is not None:
            member_out += biases[member][None, :, None]
        output[member] = member_out.reshape(batch, out_channels, out_h, out_w)
    return output


def stacked_conv2d_backward_reference(
    weights: np.ndarray,
    inputs: np.ndarray,
    grad_output: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member-loop oracle for :func:`stacked_conv2d_backward`.

    Recomputes each member's patch matrices from ``inputs`` and
    ``grad_output`` (the batched variant reuses the forward pass's patch
    buffer instead).
    """
    members, batch, out_channels = grad_output.shape[:3]
    kernel_size = weights.shape[3:]
    spatial = grad_output.shape[3] * grad_output.shape[4]
    grad_inputs = np.empty_like(inputs)
    grad_weights = np.empty_like(weights)
    grad_biases = np.empty((members, out_channels))
    for member in range(members):
        cols = im2col(inputs[member], kernel_size, stride, padding)
        grad_flat = grad_output[member].reshape(batch, out_channels, spatial)
        grad_kernel = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
        grad_weights[member] = grad_kernel.reshape(weights.shape[1:])
        grad_biases[member] = grad_flat.sum(axis=(0, 2))
        dilated = dilate(
            grad_output[member], inputs.shape[3:], kernel_size, stride, padding
        )
        dilated_cols = im2col(dilated, kernel_size, (1, 1), (0, 0))
        grad_inputs[member] = np.matmul(
            transposed_kernel_matrix(weights[member]), dilated_cols
        ).reshape(inputs.shape[1:])
    return grad_inputs, grad_weights, grad_biases


def adam_bias_corrections(
    step_counts: Sequence[int],
    mask: np.ndarray,
    beta1: float,
    beta2: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-member ``1 - beta**t`` factors for a masked stacked Adam step.

    ``step_counts`` must already be incremented for the members selected by
    ``mask`` (mirroring ``Optimizer.step``).  The scalar exponentiation runs
    through Python-float ``**`` exactly as in :meth:`Adam._update`, so the
    factors — and therefore the update — match the per-member optimizers
    bitwise.  Masked-out members get a factor of 1.0: their lanes are
    computed and discarded, and step 0 would otherwise divide by zero.
    """
    correction1 = np.array(
        [
            1.0 - beta1 ** int(count) if selected else 1.0
            for count, selected in zip(step_counts, mask)
        ]
    )
    correction2 = np.array(
        [
            1.0 - beta2 ** int(count) if selected else 1.0
            for count, selected in zip(step_counts, mask)
        ]
    )
    return correction1, correction2


def stacked_adam_update(
    value: np.ndarray,
    grad: np.ndarray,
    first_moment: np.ndarray,
    second_moment: np.ndarray,
    mask: np.ndarray,
    bias_correction1: np.ndarray,
    bias_correction2: np.ndarray,
    learning_rate: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> None:
    """One masked Adam step over a stacked parameter, in place.

    ``value``/``grad``/moments carry a leading member axis; ``mask`` selects
    which members actually step.  Selected members follow the exact operation
    order of :meth:`Adam._update` (so they match a per-member optimizer
    bitwise); masked-out members keep their value and moments untouched.
    """
    lane_shape = (len(value),) + (1,) * (value.ndim - 1)
    lanes = mask.reshape(lane_shape)
    new_first = first_moment * beta1 + (1.0 - beta1) * grad
    new_second = second_moment * beta2 + (1.0 - beta2) * grad**2
    first_moment[...] = np.where(lanes, new_first, first_moment)
    second_moment[...] = np.where(lanes, new_second, second_moment)
    m_hat = first_moment / bias_correction1.reshape(lane_shape)
    v_hat = second_moment / bias_correction2.reshape(lane_shape)
    stepped = value - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    value[...] = np.where(lanes, stepped, value)


def stacked_gradient_norms(grads: List[np.ndarray]) -> np.ndarray:
    """Per-member global L2 gradient norms, as ``Optimizer.clip_gradients``.

    ``grads`` is one stacked array per parameter (leading member axis).  The
    squared norms accumulate in the same left-to-right order as the Python
    ``sum`` in :meth:`Optimizer.clip_gradients`, so each member's norm is
    bitwise equal to the one its own optimizer computes.
    """
    members = len(grads[0])
    squares = np.zeros(members)
    for grad in grads:
        squares = squares + (grad**2).reshape(members, -1).sum(axis=1)
    return np.sqrt(squares)


def stacked_clip_scales(norms: np.ndarray, max_norm: float) -> np.ndarray:
    """Per-member gradient clip factors matching ``Optimizer.clip_gradients``.

    ``norms`` comes from :func:`stacked_gradient_norms`.  The scales are
    bitwise equal to each member clipping its own gradients; members at or
    below ``max_norm`` get a factor of exactly 1.0 (and ``x * 1.0`` is the
    identity bitwise, so applying the scales unconditionally is safe).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be strictly positive")
    clipped = norms > max_norm
    safe_norms = np.where(clipped, norms, 1.0)
    return np.where(clipped, max_norm / safe_norms, 1.0)
