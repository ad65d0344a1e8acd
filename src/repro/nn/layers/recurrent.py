"""Recurrent layers: SimpleRNN, GRU and LSTM.

The BS-side model of the paper is a recurrent network that consumes a length-4
sequence of (pooled image features, RF power) vectors and predicts the future
received power.  All layers accept inputs of shape
``(batch, time, features)`` and return the last hidden state
``(batch, hidden)``, which the dense head maps to the prediction.  Input
kernels are Xavier-uniform initialized, recurrent kernels orthogonal (one
square block per gate), biases zero except the LSTM's forget gate, which
starts at 1.

The hot path is fused: the input projections of *all* time steps and gates are
computed with one GEMM before the recurrence (``inputs @ w_x``), hidden/cell
states and per-gate activations are written into buffers preallocated for the
whole sequence, and the backward pass accumulates per-step pre-activation
gradients into one buffer so every weight gradient reduces to a single
``einsum`` over the time axis.  Only the inherently sequential ``h_{t-1} @
w_h`` recurrence remains inside the time loop.
"""
from __future__ import annotations

import numpy as np

from repro.nn.initializers import orthogonal, xavier_uniform
from repro.nn.layers.activations import stable_sigmoid
from repro.nn.layers.base import Layer, check_forward_called
from repro.utils.seeding import SeedLike


class _RecurrentBase(Layer):
    """Shared plumbing for recurrent layers: shape checks, state buffers and
    the ``gates``-wide input and recurrent kernels with a zero bias."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        gates: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(name=name, seed=seed)
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        H = self.hidden_size
        self.w_x = self.add_parameter(
            "w_x", xavier_uniform((self.input_size, gates * H), self.rng)
        )
        self.w_h = self.add_parameter(
            "w_h",
            np.concatenate([orthogonal((H, H), self.rng) for _ in range(gates)], axis=1),
        )
        self.bias = self.add_parameter("bias", np.zeros(gates * H, dtype=np.float64))
        self._cache = None

    def _check_input(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError(
                f"{self.name}: expected 3-D input (batch, time, features), "
                f"got shape {inputs.shape}"
            )
        if inputs.shape[2] != self.input_size:
            raise ValueError(
                f"{self.name}: expected feature dimension {self.input_size}, "
                f"got {inputs.shape[2]}"
            )
        return inputs

    def _expand_output_grad(self, grad_output: np.ndarray, time_steps: int):
        """The last state's gradient as a per-time-step gradient array."""
        grad_output = np.asarray(grad_output, dtype=np.float64)
        expanded = np.zeros(
            (grad_output.shape[0], time_steps, self.hidden_size), dtype=np.float64
        )
        expanded[:, -1, :] = grad_output
        return expanded

    def _new_state_buffer(self, batch: int, time_steps: int) -> np.ndarray:
        """Time-major ``(T + 1, batch, H)`` state buffer with a zero initial row."""
        states = np.empty(
            (time_steps + 1, batch, self.hidden_size), dtype=np.float64
        )
        states[0] = 0.0
        return states


class SimpleRNN(_RecurrentBase):
    """Elman RNN with tanh nonlinearity."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(input_size, hidden_size, 1, name, seed)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._check_input(inputs)
        batch, time_steps, _ = inputs.shape
        # One GEMM for the input projections of every time step.
        x_proj = inputs @ self.w_x.value + self.bias.value
        states = self._new_state_buffer(batch, time_steps)
        w_h = self.w_h.value
        for t in range(time_steps):
            np.tanh(x_proj[:, t, :] + states[t] @ w_h, out=states[t + 1])
        self._cache = (inputs, states)
        return states[-1].copy()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs, states = check_forward_called(self._cache, self)
        batch, time_steps, _ = inputs.shape
        grad_seq = self._expand_output_grad(grad_output, time_steps)

        grad_pre = np.empty(
            (time_steps, batch, self.hidden_size), dtype=np.float64
        )
        grad_hidden = np.zeros((batch, self.hidden_size), dtype=np.float64)
        w_h_t = self.w_h.value.T
        for t in reversed(range(time_steps)):
            total = grad_seq[:, t, :] + grad_hidden
            hidden = states[t + 1]
            grad_pre[t] = total * (1.0 - hidden * hidden)
            grad_hidden = grad_pre[t] @ w_h_t
        # Weight gradients reduce over the whole sequence in one einsum each.
        self.w_x.grad += np.einsum("btf,tbh->fh", inputs, grad_pre, optimize=True)
        self.w_h.grad += np.einsum(
            "tbh,tbg->hg", states[:-1], grad_pre, optimize=True
        )
        self.bias.grad += grad_pre.sum(axis=(0, 1))
        return np.ascontiguousarray(
            grad_pre.transpose(1, 0, 2) @ self.w_x.value.T
        )


class GRU(_RecurrentBase):
    """Gated recurrent unit (Cho et al., 2014)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        # Gates are stacked as [update z | reset r | candidate n].
        super().__init__(input_size, hidden_size, 3, name, seed)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._check_input(inputs)
        batch, time_steps, _ = inputs.shape
        H = self.hidden_size
        # One GEMM for every gate of every time step.
        x_proj = inputs @ self.w_x.value + self.bias.value
        states = self._new_state_buffer(batch, time_steps)
        # Per-gate activations for the whole sequence, preallocated.
        z_all = np.empty((time_steps, batch, H), dtype=np.float64)
        r_all = np.empty_like(z_all)
        n_all = np.empty_like(z_all)
        n_proj_all = np.empty_like(z_all)
        w_h = self.w_h.value
        for t in range(time_steps):
            h_proj = states[t] @ w_h
            z_all[t] = stable_sigmoid(x_proj[:, t, :H] + h_proj[:, :H])
            r_all[t] = stable_sigmoid(x_proj[:, t, H : 2 * H] + h_proj[:, H : 2 * H])
            n_proj_all[t] = h_proj[:, 2 * H :]
            n_all[t] = np.tanh(x_proj[:, t, 2 * H :] + r_all[t] * n_proj_all[t])
            states[t + 1] = (1.0 - z_all[t]) * n_all[t] + z_all[t] * states[t]
        self._cache = (inputs, states, z_all, r_all, n_all, n_proj_all)
        return states[-1].copy()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs, states, z_all, r_all, n_all, n_proj_all = check_forward_called(
            self._cache, self
        )
        batch, time_steps, _ = inputs.shape
        H = self.hidden_size
        grad_seq = self._expand_output_grad(grad_output, time_steps)

        grad_x_proj = np.empty((time_steps, batch, 3 * H), dtype=np.float64)
        grad_h_proj = np.empty_like(grad_x_proj)
        grad_hidden = np.zeros((batch, H), dtype=np.float64)
        w_h_t = self.w_h.value.T
        for t in reversed(range(time_steps)):
            total = grad_seq[:, t, :] + grad_hidden
            z, r, n, n_proj = z_all[t], r_all[t], n_all[t], n_proj_all[t]
            prev_hidden = states[t]

            grad_n = total * (1.0 - z)
            grad_z = total * (prev_hidden - n)
            grad_pre_n = grad_n * (1.0 - n * n)
            grad_pre_z = grad_z * z * (1.0 - z)
            grad_pre_r = grad_pre_n * n_proj * r * (1.0 - r)

            grad_x_proj[t, :, :H] = grad_pre_z
            grad_x_proj[t, :, H : 2 * H] = grad_pre_r
            grad_x_proj[t, :, 2 * H :] = grad_pre_n
            grad_h_proj[t, :, : 2 * H] = grad_x_proj[t, :, : 2 * H]
            grad_h_proj[t, :, 2 * H :] = grad_pre_n * r

            grad_hidden = total * z + grad_h_proj[t] @ w_h_t

        self.w_x.grad += np.einsum(
            "btf,tbg->fg", inputs, grad_x_proj, optimize=True
        )
        self.w_h.grad += np.einsum(
            "tbh,tbg->hg", states[:-1], grad_h_proj, optimize=True
        )
        self.bias.grad += grad_x_proj.sum(axis=(0, 1))
        return np.ascontiguousarray(
            grad_x_proj.transpose(1, 0, 2) @ self.w_x.value.T
        )


class LSTM(_RecurrentBase):
    """Long short-term memory layer (Hochreiter & Schmidhuber, 1997)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        name: str | None = None,
        seed: SeedLike = None,
    ):
        # Gates are stacked as [input i | forget f | cell g | output o].
        super().__init__(input_size, hidden_size, 4, name, seed)
        H = self.hidden_size
        self.bias.value[H : 2 * H] = 1.0

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._check_input(inputs)
        batch, time_steps, _ = inputs.shape
        H = self.hidden_size
        # One GEMM for every gate of every time step.
        x_proj = inputs @ self.w_x.value + self.bias.value
        states = self._new_state_buffer(batch, time_steps)
        cells = self._new_state_buffer(batch, time_steps)
        gates = np.empty((time_steps, batch, 4 * H), dtype=np.float64)
        tanh_cells = np.empty((time_steps, batch, H), dtype=np.float64)
        w_h = self.w_h.value
        for t in range(time_steps):
            pre = x_proj[:, t, :] + states[t] @ w_h
            gates[t, :, :H] = stable_sigmoid(pre[:, :H])
            gates[t, :, H : 2 * H] = stable_sigmoid(pre[:, H : 2 * H])
            gates[t, :, 2 * H : 3 * H] = np.tanh(pre[:, 2 * H : 3 * H])
            gates[t, :, 3 * H :] = stable_sigmoid(pre[:, 3 * H :])
            i = gates[t, :, :H]
            f = gates[t, :, H : 2 * H]
            g = gates[t, :, 2 * H : 3 * H]
            o = gates[t, :, 3 * H :]
            cells[t + 1] = f * cells[t] + i * g
            np.tanh(cells[t + 1], out=tanh_cells[t])
            states[t + 1] = o * tanh_cells[t]
        self._cache = (inputs, states, cells, gates, tanh_cells)
        return states[-1].copy()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        inputs, states, cells, gates, tanh_cells = check_forward_called(
            self._cache, self
        )
        batch, time_steps, _ = inputs.shape
        H = self.hidden_size
        grad_seq = self._expand_output_grad(grad_output, time_steps)

        grad_pre = np.empty((time_steps, batch, 4 * H), dtype=np.float64)
        grad_hidden = np.zeros((batch, H), dtype=np.float64)
        grad_cell = np.zeros((batch, H), dtype=np.float64)
        w_h_t = self.w_h.value.T
        for t in reversed(range(time_steps)):
            total = grad_seq[:, t, :] + grad_hidden
            i = gates[t, :, :H]
            f = gates[t, :, H : 2 * H]
            g = gates[t, :, 2 * H : 3 * H]
            o = gates[t, :, 3 * H :]
            tanh_cell = tanh_cells[t]
            prev_cell = cells[t]

            grad_o = total * tanh_cell
            grad_cell_t = grad_cell + total * o * (1.0 - tanh_cell * tanh_cell)

            grad_pre[t, :, :H] = grad_cell_t * g * i * (1.0 - i)
            grad_pre[t, :, H : 2 * H] = grad_cell_t * prev_cell * f * (1.0 - f)
            grad_pre[t, :, 2 * H : 3 * H] = grad_cell_t * i * (1.0 - g * g)
            grad_pre[t, :, 3 * H :] = grad_o * o * (1.0 - o)

            grad_hidden = grad_pre[t] @ w_h_t
            grad_cell = grad_cell_t * f

        self.w_x.grad += np.einsum("btf,tbg->fg", inputs, grad_pre, optimize=True)
        self.w_h.grad += np.einsum(
            "tbh,tbg->hg", states[:-1], grad_pre, optimize=True
        )
        self.bias.grad += grad_pre.sum(axis=(0, 1))
        return np.ascontiguousarray(
            grad_pre.transpose(1, 0, 2) @ self.w_x.value.T
        )
