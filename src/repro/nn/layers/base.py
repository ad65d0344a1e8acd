"""Layer protocol for the numpy neural-network substrate.

A computing layer implements an explicit ``forward``/``backward`` pair
instead of a tape-based autograd.  The model used by the paper is a fixed
two-segment pipeline (UE-side CNN, BS-side RNN), and keeping
backpropagation explicit makes the cut-layer gradient exchange — the
central object of split learning — visible in the code that simulates it.
The BS layers compute this way.  The UE CNN's ``Conv2D`` and ``Sigmoid``
only hold parameters and name their step: the UE network runs as one
stacked plan (:mod:`repro.fleet.bank`).
"""
from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.utils.seeding import SeedLike, as_generator


class Parameter:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers.

    Computing sub-classes implement :meth:`forward` and :meth:`backward`.
    They cache whatever they need for the backward pass on ``self`` during
    ``forward``; calling ``backward`` before ``forward`` raises.
    """

    def __init__(self, name: str | None = None, seed: SeedLike = None):
        self.name = name or self.__class__.__name__
        self.rng = as_generator(seed)
        self._params: Dict[str, Parameter] = {}

    # -- parameter management -------------------------------------------------
    def add_parameter(self, name: str, value: np.ndarray) -> Parameter:
        """Register a trainable parameter under ``name``."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered on {self.name}")
        param = Parameter(f"{self.name}.{name}", value)
        self._params[name] = param
        return param

    def parameters(self) -> Iterator[Parameter]:
        """Iterate over this layer's trainable parameters."""
        yield from self._params.values()

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        """Iterate over ``(local name, parameter)`` pairs."""
        yield from self._params.items()

    def zero_grad(self) -> None:
        """Reset gradients on all parameters of this layer."""
        for param in self.parameters():
            param.zero_grad()

    # -- computation -----------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. inputs.

        Parameter gradients are *accumulated* into ``Parameter.grad``.
        """
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- (de)serialization helpers ----------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of all parameter values keyed by local name."""
        return {name: param.value.copy() for name, param in self._params.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`.

        Raises:
            KeyError: if a parameter is missing from ``state``.
            ValueError: on shape mismatch.
        """
        for name, param in self._params.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} for layer {self.name}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {self.name}.{name}: "
                    f"expected {param.value.shape}, got {value.shape}"
                )
            param.value = value.copy()
            param.grad = np.zeros_like(param.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


def check_forward_called(cache_attribute, layer: Layer):
    """Raise a consistent error when backward is called before forward."""
    if cache_attribute is None:
        raise RuntimeError(
            f"backward() called before forward() on layer {layer.name!r}"
        )
    return cache_attribute
