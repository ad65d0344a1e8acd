"""Loop oracles of the NN kernels: the formulations the vectorized code replaced.

Each function computes what one of the program's kernels computes, the naive
way: convolutions per output pixel or per member, average pooling per
window, recurrent layers step by step with per-step lists.  They are the
correctness oracles of ``tests/nn/test_kernel_equivalence.py`` and
``tests/nn/test_stacked.py``, the per-member loop of
``tests/fleet/member_loop_oracle.py``, and the baselines of the kernel
micro-benchmarks (``benchmarks/test_bench_nn_kernels.py``).

They cover the one geometry the split model uses: 'same' convolutions
(stride 1, odd ``k x k`` kernel, ``k // 2`` zero padding), non-overlapping
average pooling, and recurrent layers that emit their last state.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.nn.layers.activations import stable_sigmoid
from repro.nn.layers.conv import im2col, transposed_kernel_matrix


# -- convolution ---------------------------------------------------------------


def conv2d_forward_reference(
    inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Per-output-pixel 'same' convolution.

    Args:
        inputs: ``(batch, in_channels, H, W)``.
        weight: ``(out_channels, in_channels, k, k)``.
        bias: ``(out_channels,)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, k, _ = weight.shape
    p = k // 2
    padded = np.pad(inputs, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant")
    output = np.zeros((batch, out_channels, height, width), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(height):
                for j in range(width):
                    output[b, oc, i, j] = np.sum(padded[b, :, i : i + k, j : j + k] * weight[oc])
            output[b, oc] += bias[oc]
    return output


def conv2d_backward_reference(
    inputs: np.ndarray, weight: np.ndarray, grad_output: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-output-pixel backward of :func:`conv2d_forward_reference`.

    Returns:
        ``(grad_inputs, grad_weight, grad_bias)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    grad_output = np.asarray(grad_output, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, k, _ = weight.shape
    p = k // 2
    padded = np.pad(inputs, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant")
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight, dtype=np.float64)
    grad_bias = grad_output.sum(axis=(0, 2, 3))
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(height):
                for j in range(width):
                    g = grad_output[b, oc, i, j]
                    grad_weight[oc] += g * padded[b, :, i : i + k, j : j + k]
                    grad_padded[b, :, i : i + k, j : j + k] += g * weight[oc]
    return grad_padded[:, :, p : p + height, p : p + width], grad_weight, grad_bias


def stacked_conv2d_forward_reference(
    weights: np.ndarray, biases: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """Member-loop oracle for :func:`repro.nn.stacked.stacked_conv2d_forward`."""
    members, batch = inputs.shape[:2]
    out_channels = weights.shape[1]
    output = np.empty((members, batch, out_channels) + inputs.shape[3:])
    for member in range(members):
        cols = im2col(inputs[member], weights.shape[-1])
        member_out = np.matmul(weights[member].reshape(out_channels, -1), cols)
        member_out += biases[member][None, :, None]
        output[member] = member_out.reshape(output.shape[1:])
    return output


def stacked_conv2d_backward_reference(
    weights: np.ndarray, inputs: np.ndarray, grad_output: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member-loop oracle for :func:`repro.nn.stacked.stacked_conv2d_backward`.

    Recomputes each member's patch matrices from ``inputs`` and
    ``grad_output`` (the batched variant reuses the forward pass's patch
    buffer instead).
    """
    members, batch, out_channels = grad_output.shape[:3]
    kernel_size = weights.shape[-1]
    spatial = grad_output.shape[3] * grad_output.shape[4]
    grad_inputs = np.empty_like(inputs)
    grad_weights = np.empty_like(weights)
    grad_biases = np.empty((members, out_channels))
    for member in range(members):
        cols = im2col(inputs[member], kernel_size)
        grad_flat = grad_output[member].reshape(batch, out_channels, spatial)
        grad_kernel = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
        grad_weights[member] = grad_kernel.reshape(weights.shape[1:])
        grad_biases[member] = grad_flat.sum(axis=(0, 2))
        grad_cols = im2col(grad_output[member], kernel_size)
        grad_inputs[member] = np.matmul(
            transposed_kernel_matrix(weights[member]), grad_cols
        ).reshape(inputs.shape[1:])
    return grad_inputs, grad_weights, grad_biases


# -- pooling -------------------------------------------------------------------


def avgpool2d_forward_reference(
    inputs: np.ndarray, pool_size: Tuple[int, int]
) -> np.ndarray:
    """Per-window average pooling."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, channels, height, width = inputs.shape
    ph, pw = pool_size
    if height % ph != 0 or width % pw != 0:
        raise ValueError(f"input {height}x{width} not divisible by pool {ph}x{pw}")
    output = np.zeros((batch, channels, height // ph, width // pw), dtype=np.float64)
    for b in range(batch):
        for c in range(channels):
            for i in range(height // ph):
                for j in range(width // pw):
                    window = inputs[b, c, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw]
                    output[b, c, i, j] = window.mean()
    return output


def avgpool2d_backward_reference(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    pool_size: Tuple[int, int],
) -> np.ndarray:
    """Per-window backward of :func:`avgpool2d_forward_reference`."""
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


# -- recurrent -----------------------------------------------------------------
#
# Each forward returns the last hidden state ``(batch, H)``; each gradient
# function takes that state's gradient and returns the gradients of the
# inputs and of the three parameters.


def simple_rnn_forward_reference(
    inputs: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Step-by-step Elman RNN forward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    hidden = np.zeros((batch, w_h.shape[0]), dtype=np.float64)
    for t in range(time_steps):
        hidden = np.tanh(inputs[:, t, :] @ w_x + hidden @ w_h + bias)
    return hidden


def simple_rnn_gradients_reference(
    inputs: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    grad_output: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Step-by-step Elman RNN backward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    hidden_size = w_h.shape[0]
    states = [np.zeros((batch, hidden_size), dtype=np.float64)]
    for t in range(time_steps):
        pre = inputs[:, t, :] @ w_x + states[-1] @ w_h
        states.append(np.tanh(pre + bias))

    grad_inputs = np.zeros_like(inputs)
    grad_w_x = np.zeros_like(w_x)
    grad_w_h = np.zeros_like(w_h)
    grad_bias = np.zeros_like(bias)
    grad_hidden = np.asarray(grad_output, dtype=np.float64)
    for t in reversed(range(time_steps)):
        hidden = states[t + 1]
        grad_pre = grad_hidden * (1.0 - hidden * hidden)
        grad_w_x += inputs[:, t, :].T @ grad_pre
        grad_w_h += states[t].T @ grad_pre
        grad_bias += grad_pre.sum(axis=0)
        grad_inputs[:, t, :] = grad_pre @ w_x.T
        grad_hidden = grad_pre @ w_h.T
    return {"inputs": grad_inputs, "w_x": grad_w_x, "w_h": grad_w_h, "bias": grad_bias}


def _gru_step(x_t, hidden, w_x, w_h, bias):
    """One GRU step: ``(z, r, n, candidate recurrent projection, new hidden)``."""
    H = w_h.shape[0]
    x_proj = x_t @ w_x + bias
    h_proj = hidden @ w_h
    z = stable_sigmoid(x_proj[:, :H] + h_proj[:, :H])
    r = stable_sigmoid(x_proj[:, H : 2 * H] + h_proj[:, H : 2 * H])
    n = np.tanh(x_proj[:, 2 * H :] + r * h_proj[:, 2 * H :])
    return z, r, n, h_proj[:, 2 * H :], (1.0 - z) * n + z * hidden


def gru_forward_reference(
    inputs: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Step-by-step GRU forward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    hidden = np.zeros((batch, w_h.shape[0]), dtype=np.float64)
    for t in range(time_steps):
        hidden = _gru_step(inputs[:, t, :], hidden, w_x, w_h, bias)[-1]
    return hidden


def gru_gradients_reference(
    inputs: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    grad_output: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Step-by-step GRU backward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    states = [np.zeros((batch, w_h.shape[0]), dtype=np.float64)]
    gates: List[tuple] = []
    for t in range(time_steps):
        *step_gates, hidden = _gru_step(inputs[:, t, :], states[-1], w_x, w_h, bias)
        gates.append(step_gates)
        states.append(hidden)

    grad_inputs = np.zeros_like(inputs)
    grad_w_x = np.zeros_like(w_x)
    grad_w_h = np.zeros_like(w_h)
    grad_bias = np.zeros_like(bias)
    grad_hidden = np.asarray(grad_output, dtype=np.float64)
    for t in reversed(range(time_steps)):
        z, r, n, h_candidate_proj = gates[t]
        prev_hidden = states[t]

        grad_pre_n = grad_hidden * (1.0 - z) * (1.0 - n * n)
        grad_pre_z = grad_hidden * (prev_hidden - n) * z * (1.0 - z)
        grad_pre_r = grad_pre_n * h_candidate_proj * r * (1.0 - r)

        grad_x_proj = np.concatenate([grad_pre_z, grad_pre_r, grad_pre_n], axis=1)
        grad_h_proj = np.concatenate([grad_pre_z, grad_pre_r, grad_pre_n * r], axis=1)

        grad_w_x += inputs[:, t, :].T @ grad_x_proj
        grad_w_h += prev_hidden.T @ grad_h_proj
        grad_bias += grad_x_proj.sum(axis=0)
        grad_inputs[:, t, :] = grad_x_proj @ w_x.T
        grad_hidden = grad_hidden * z + grad_h_proj @ w_h.T
    return {"inputs": grad_inputs, "w_x": grad_w_x, "w_h": grad_w_h, "bias": grad_bias}


def _lstm_step(x_t, hidden, cell, w_x, w_h, bias):
    """One LSTM step: ``(i, f, g, o, tanh(new cell), new hidden, new cell)``."""
    H = w_h.shape[0]
    pre = x_t @ w_x + hidden @ w_h + bias
    i = stable_sigmoid(pre[:, :H])
    f = stable_sigmoid(pre[:, H : 2 * H])
    g = np.tanh(pre[:, 2 * H : 3 * H])
    o = stable_sigmoid(pre[:, 3 * H :])
    cell = f * cell + i * g
    tanh_cell = np.tanh(cell)
    return i, f, g, o, tanh_cell, o * tanh_cell, cell


def lstm_forward_reference(
    inputs: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Step-by-step LSTM forward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    hidden = np.zeros((batch, w_h.shape[0]), dtype=np.float64)
    cell = np.zeros_like(hidden)
    for t in range(time_steps):
        *_, hidden, cell = _lstm_step(inputs[:, t, :], hidden, cell, w_x, w_h, bias)
    return hidden


def lstm_gradients_reference(
    inputs: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    grad_output: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Step-by-step LSTM backward pass."""
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, time_steps, _ = inputs.shape
    H = w_h.shape[0]
    hidden_states = [np.zeros((batch, H), dtype=np.float64)]
    cell_states = [np.zeros((batch, H), dtype=np.float64)]
    gates: List[tuple] = []
    for t in range(time_steps):
        *step_gates, hidden, cell = _lstm_step(
            inputs[:, t, :], hidden_states[-1], cell_states[-1], w_x, w_h, bias
        )
        gates.append(step_gates)
        hidden_states.append(hidden)
        cell_states.append(cell)

    grad_inputs = np.zeros_like(inputs)
    grad_w_x = np.zeros_like(w_x)
    grad_w_h = np.zeros_like(w_h)
    grad_bias = np.zeros_like(bias)
    grad_hidden = np.asarray(grad_output, dtype=np.float64)
    grad_cell = np.zeros((batch, H), dtype=np.float64)
    for t in reversed(range(time_steps)):
        i, f, g, o, tanh_cell = gates[t]
        grad_cell_t = grad_cell + grad_hidden * o * (1.0 - tanh_cell * tanh_cell)
        grad_pre = np.concatenate(
            [
                grad_cell_t * g * i * (1.0 - i),
                grad_cell_t * cell_states[t] * f * (1.0 - f),
                grad_cell_t * i * (1.0 - g * g),
                grad_hidden * tanh_cell * o * (1.0 - o),
            ],
            axis=1,
        )
        grad_w_x += inputs[:, t, :].T @ grad_pre
        grad_w_h += hidden_states[t].T @ grad_pre
        grad_bias += grad_pre.sum(axis=0)
        grad_inputs[:, t, :] = grad_pre @ w_x.T
        grad_hidden = grad_pre @ w_h.T
        grad_cell = grad_cell_t * f
    return {"inputs": grad_inputs, "w_x": grad_w_x, "w_h": grad_w_h, "bias": grad_bias}
