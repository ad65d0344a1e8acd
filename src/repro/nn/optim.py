"""First-order optimizers.

The paper trains with Adam (learning rate 0.001, beta1=0.9, beta2=0.999), the
one concrete :class:`Optimizer` here.
"""
from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.layers.base import Parameter


class Optimizer:
    """Base optimizer operating on a list of :class:`Parameter` objects."""

    #: Names of scalar hyper-parameter attributes included in the state dict
    #: (extended by subclasses).
    _hyperparameter_names: tuple = ("learning_rate",)

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be strictly positive")
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def zero_grad(self) -> None:
        """Reset gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        self.step_count += 1
        self._update()

    def _update(self) -> None:
        raise NotImplementedError

    def _slots(self) -> Dict[str, List[np.ndarray]]:
        """Per-parameter slot buffers keyed by slot name (extended by subclasses)."""
        return {}

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Complete restorable state: hyper-parameters, step count, slot buffers.

        Every entry is an :class:`numpy.ndarray` (scalars as 0-d arrays), so
        the state embeds directly into ``.npz`` archives and the nested state
        trees written by :func:`repro.nn.serialization.save_state_tree`.
        """
        state: Dict[str, np.ndarray] = {
            "step_count": np.asarray(self.step_count, dtype=np.int64)
        }
        for name in self._hyperparameter_names:
            state[f"hyper/{name}"] = np.asarray(float(getattr(self, name)))
        for slot, buffers in self._slots().items():
            for index, buffer in enumerate(buffers):
                state[f"slot/{slot}/{index}"] = buffer.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`.

        Stepping after a restore continues the original trajectory exactly:
        slot buffers are copied in place, bias-correction counters resume at
        the stored step count, and hyper-parameters take the stored values.

        Raises:
            KeyError: when a required entry is missing.
            ValueError: on slot shape mismatch or leftover (extra) entries.
        """
        expected = {"step_count"}
        expected.update(f"hyper/{name}" for name in self._hyperparameter_names)
        expected.update(
            f"slot/{slot}/{index}"
            for slot, buffers in self._slots().items()
            for index in range(len(buffers))
        )
        missing = expected - set(state)
        if missing:
            raise KeyError(f"missing optimizer state entries: {sorted(missing)}")
        extra = set(state) - expected
        if extra:
            raise ValueError(
                f"unexpected optimizer state entries (wrong optimizer or "
                f"parameter count?): {sorted(extra)}"
            )
        for name in self._hyperparameter_names:
            setattr(self, name, float(np.asarray(state[f"hyper/{name}"])))
        for slot, buffers in self._slots().items():
            for index, buffer in enumerate(buffers):
                value = np.asarray(state[f"slot/{slot}/{index}"], dtype=np.float64)
                if value.shape != buffer.shape:
                    raise ValueError(
                        f"shape mismatch for optimizer slot {slot}[{index}]: "
                        f"expected {buffer.shape}, got {value.shape}"
                    )
                buffer[...] = value
        self.step_count = int(np.asarray(state["step_count"]))

    def gradient_norm(self) -> float:
        """Global L2 norm of all managed gradients."""
        return float(
            np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.parameters))
        )

    def clip_gradients(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm.
        """
        if max_norm <= 0:
            raise ValueError("max_norm must be strictly positive")
        total = self.gradient_norm()
        if total > max_norm and total > 0:
            scale = max_norm / total
            for param in self.parameters:
                param.grad *= scale
        return total


#: Adam's ``epsilon``: the BS optimizer's default and the UE bank's constant.
ADAM_EPSILON = 1e-8


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    Defaults match the paper: learning rate 0.001, beta1=0.9, beta2=0.999.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = ADAM_EPSILON,
    ):
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first_moment = [np.zeros_like(p.value) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.value) for p in self.parameters]

    _hyperparameter_names = Optimizer._hyperparameter_names + (
        "beta1",
        "beta2",
        "epsilon",
    )

    def _slots(self) -> Dict[str, List[np.ndarray]]:
        return {
            "first_moment": self._first_moment,
            "second_moment": self._second_moment,
        }

    def _update(self) -> None:
        bias_correction1 = 1.0 - self.beta1**self.step_count
        bias_correction2 = 1.0 - self.beta2**self.step_count
        for param, m, v in zip(
            self.parameters, self._first_moment, self._second_moment
        ):
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad**2
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
