"""Per-member UE compute: the test oracle of the UE network and its bank.

:class:`MemberNetwork` runs one member's UE network layer by layer through
the loop references the library keeps for its kernels: the member loops
``stacked_conv2d_forward_reference`` / ``stacked_conv2d_backward_reference``
at one member, the ReLU mask, :func:`stable_sigmoid`, and the pooling pair.
It reads the layer chain and the pool size off the client itself and never
calls the UE network's plan (``repro.fleet.bank.ue_forward`` /
``ue_backward``) or the batched conv kernels, so the plan is checked against
an independent formulation.  The update is the client's own per-member Adam
step, ``UEClient.apply_update``.

:class:`MemberLoop` answers the bank's joint-step calls with one
:class:`MemberNetwork` per member.  Installed as a trainer's bank
(``trainer._bank = MemberLoop(...)``), it replays a fleet run the way
per-member code would; the bank must match it bit for bit.

The pooling forward is :func:`~repro.nn.layers.pooling.average_pool`, not
``avgpool2d_forward_reference``: the loop reference averages each window in
a different summation order, so it agrees with the reshape mean only to
rounding, while the backward reference writes each input gradient once and
agrees exactly.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, stable_sigmoid
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pooling import average_pool, avgpool2d_backward_reference
from repro.nn.stacked import (
    stacked_conv2d_backward_reference,
    stacked_conv2d_forward_reference,
)
from repro.split.ue import UEClient


class MemberNetwork:
    """One member's UE network through the loop references.

    Args:
        client: the member's ``UEClient``; its parameters are read at every
            call and its gradients accumulate in place.
    """

    def __init__(self, client: UEClient):
        self.client = client
        config = client.model_config
        self.pool_size = (config.pooling_height, config.pooling_width)
        self._saved: list = []
        self._pool_input_shape: tuple = ()

    def forward(self, image_sequences: np.ndarray) -> np.ndarray:
        """Cut-layer activations ``(batch, L, F)`` of a minibatch."""
        images = np.asarray(image_sequences, dtype=np.float64)
        batch, length, height, width = images.shape
        x = images.reshape(batch * length, 1, height, width)
        self._saved = []
        for layer in self.client.cnn.layers:
            if isinstance(layer, Conv2D):
                self._saved.append(x)
                x = stacked_conv2d_forward_reference(
                    layer.weight.value[None],
                    layer.bias.value[None],
                    x[None],
                    layer.stride,
                    layer.padding,
                )[0]
            elif isinstance(layer, ReLU):
                mask = x > 0
                self._saved.append(mask)
                x = x * mask
            else:
                assert isinstance(layer, Sigmoid), layer
                x = stable_sigmoid(x)
                self._saved.append(x)
        self._pool_input_shape = x.shape
        pooled = average_pool(x, self.pool_size)
        return pooled.reshape(batch, length, -1)

    def backward(self, cut_gradient: np.ndarray) -> None:
        """Accumulate the parameter gradients of the last :meth:`forward`."""
        frames, channels, height, width = self._pool_input_shape
        ph, pw = self.pool_size
        grad = avgpool2d_backward_reference(
            np.asarray(cut_gradient, dtype=np.float64).reshape(
                frames, channels, height // ph, width // pw
            ),
            self._pool_input_shape,
            self.pool_size,
        )
        for layer, saved in reversed(list(zip(self.client.cnn.layers, self._saved))):
            if isinstance(layer, Conv2D):
                grad_inputs, grad_weight, grad_bias = stacked_conv2d_backward_reference(
                    layer.weight.value[None],
                    saved[None],
                    grad[None],
                    layer.stride,
                    layer.padding,
                )
                layer.weight.grad += grad_weight[0]
                layer.bias.grad += grad_bias[0]
                grad = grad_inputs[0]
            elif isinstance(layer, ReLU):
                grad = grad * saved
            else:
                grad = grad * saved * (1.0 - saved)

    def step(self, cut_gradient: np.ndarray) -> None:
        """Backpropagate and take the client's own optimizer step."""
        self.backward(cut_gradient)
        self.client.apply_update()


class MemberLoop:
    """Each member's own network, one at a time.

    Same calls as :class:`~repro.fleet.bank.StackedUEBank`, on lists of
    per-member arrays.  The clients are updated in place, so ``gather`` and
    ``scatter`` have nothing to do.

    Args:
        clients: the fleet members' ``UEClient`` objects, in member order.
    """

    def __init__(self, clients: Sequence[UEClient]):
        self._members: List[MemberNetwork] = [MemberNetwork(c) for c in clients]

    def gather(self) -> None:
        """Nothing to snapshot: the clients are the state."""

    def scatter(self) -> None:
        """Nothing to write back: the clients were updated in place."""

    def forward(self, image_sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every member's forward pass on its own minibatch."""
        return [
            member.forward(images)
            for member, images in zip(self._members, image_sequences)
        ]

    def backward_and_update(
        self, members: Sequence[int], cut_gradients: Sequence[np.ndarray]
    ) -> None:
        """Backpropagate and update the listed members, one gradient each."""
        for member, gradient in zip(members, cut_gradients):
            self._members[member].step(gradient)
