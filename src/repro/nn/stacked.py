"""Stacked-weight kernels: every NN computation of the UE network.

Every UE of a fleet runs the *same* CNN architecture with its own weights,
so N independent forward/backward passes fuse into batched GEMMs by stacking
the per-member weights along one extra leading axis.  These kernels are the
only convolution the program runs: the UE network's plan
(:mod:`repro.fleet.bank`) runs them at N members to train a fleet and at one
member for inference.  Every convolution is a 'same' one (stride 1, odd
``k x k`` kernel, ``k // 2`` padding), so outputs have the inputs' size.

The forward lowers each member's convolution to :func:`~repro.nn.layers.conv.im2col`
columns contracted against its flattened kernel with ``np.matmul``.  The
backward contracts the output gradient against the forward pass's patch
matrix for the weight gradient, and computes the input gradient as the
:func:`~repro.nn.layers.conv.im2col` of the output gradient contracted
against the flipped kernels; ``needs_input_grad=False`` skips the input
gradient, as a network's first layer does.  The forward and backward
optionally reuse the caller's buffers: zero-bordered padding buffers, the
patch matrices of the inputs and of the output gradient, and the output
arrays; a caller that runs a pass in blocks of members hands each block its
views of them.  The masked Adam step and the gradient norms follow the
operation order of :class:`repro.nn.optim.Adam` and
``Optimizer.clip_gradients``, so each member's update is bitwise what its own
optimizer would compute.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.conv import im2col, transposed_kernel_matrix


def stacked_conv2d_forward(
    weights: np.ndarray,
    biases: np.ndarray,
    inputs: np.ndarray,
    cols_out: Optional[np.ndarray] = None,
    padded_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All members' convolutions in one broadcasted GEMM.

    Args:
        weights: ``(members, out_channels, in_channels, k, k)`` stacked
            kernels, one slice per member.
        biases: ``(members, out_channels)`` stacked biases.
        inputs: ``(members, batch, in_channels, H, W)`` per-member inputs.
        cols_out: optional reusable patch buffer of the returned ``cols``'
            shape (forwarded to :func:`im2col`).  A caller that runs a pass
            in blocks of members passes each block a leading view of one
            block-sized buffer.
        padded_out: optional zero-bordered padding buffer for the flattened
            ``(members * batch, ...)`` inputs, from
            :func:`~repro.nn.layers.conv.padded_buffer` (forwarded to
            :func:`im2col` as ``padded``).
        out: optional C-contiguous ``(members, batch, out_channels, H, W)``
            array the output is written into (a fresh one otherwise).

    Returns:
        ``(output, cols)`` — output ``(members, batch, out_channels, H, W)``
        and the flattened patch matrix ``(members * batch, F, H * W)``
        needed by :func:`stacked_conv2d_backward`.
    """
    members, batch = inputs.shape[:2]
    flat_inputs = inputs.reshape((members * batch,) + inputs.shape[2:])
    cols = im2col(flat_inputs, weights.shape[-1], out=cols_out, padded=padded_out)
    out_channels = weights.shape[1]
    if out is None:
        out = np.empty((members, batch, out_channels) + inputs.shape[3:])
    kernel_matrix = weights.reshape(members, 1, out_channels, -1)
    stacked_cols = cols.reshape(members, batch, cols.shape[1], cols.shape[2])
    # Explicit sizes: reshape(-1) cannot infer them for empty batches.
    output = out.reshape(members, batch, out_channels, cols.shape[2])
    np.matmul(kernel_matrix, stacked_cols, out=output)
    output += biases[:, None, :, None]
    return out, cols


def stacked_conv2d_backward(
    weights: np.ndarray,
    cols: np.ndarray,
    grad_output: np.ndarray,
    needs_input_grad: bool = True,
    padded_out: Optional[np.ndarray] = None,
    grad_cols_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Gradients of :func:`stacked_conv2d_forward` for every member at once.

    Args:
        weights: the stacked kernels used in the forward pass.
        cols: the patch matrix of the forward pass (returned by it, or
            recomputed with :func:`~repro.nn.layers.conv.im2col`).
        grad_output: ``(members, batch, out_channels, H, W)``.
        needs_input_grad: compute ``grad_inputs``; when ``False`` it is
            returned as ``None``.
        padded_out: optional zero-bordered padding buffer for the flattened
            ``(members * batch, ...)`` output gradient, from
            :func:`~repro.nn.layers.conv.padded_buffer` (forwarded to
            :func:`im2col` as ``padded``).
        grad_cols_out: optional reusable buffer for the output gradient's
            patch matrix ``(members * batch, out_channels * k * k, H * W)``
            (forwarded to :func:`im2col` as ``out``).
        out: optional C-contiguous array of ``grad_inputs``' shape that the
            input gradient is written into (a fresh one otherwise).

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
    grad_cols = im2col(
        grad_output.reshape((members * batch,) + grad_output.shape[2:]),
        weights.shape[-1],
        out=grad_cols_out,
        padded=padded_out,
    )
    input_shape = (members, batch, weights.shape[2]) + grad_output.shape[3:]
    if out is None:
        out = np.empty(input_shape)
    np.matmul(
        transposed_kernel_matrix(weights)[:, None],
        grad_cols.reshape((members, batch) + grad_cols.shape[1:]),
        out=out.reshape(members, batch, weights.shape[2], spatial),
    )
    return out, grad_weights, grad_biases


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
