"""Sequential container chaining layers end to end."""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.nn.layers.base import Layer, Parameter


class Sequential(Layer):
    """A linear stack of layers.

    The container forwards the input through each layer in order and
    backpropagates in reverse order.  It also aggregates parameters and state
    dictionaries, so a full model half (the UE CNN or the BS RNN stack of the
    paper) can be treated as a single object.
    """

    def __init__(self, layers: Iterable[Layer] | None = None, name: str | None = None):
        super().__init__(name=name)
        self.layers: List[Layer] = []
        for layer in layers or []:
            self.add(layer)

    def add(self, layer: Layer) -> "Sequential":
        """Append ``layer`` to the stack and return ``self`` for chaining."""
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer)!r}")
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    # -- computation -----------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.forward(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- parameter management ----------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for layer in self.layers:
            yield from layer.parameters()

    def named_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        for index, layer in enumerate(self.layers):
            for name, param in layer.named_parameters():
                yield f"{index}.{layer.name}.{name}", param

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -- (de)serialization -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer.state_dict().items():
                state[f"{index}.{name}"] = value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for index, layer in enumerate(self.layers):
            prefix = f"{index}."
            layer_state = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            layer.load_state_dict(layer_state)
