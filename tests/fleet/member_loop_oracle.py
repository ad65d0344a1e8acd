"""Per-member UE training: the test oracle of the UE network and its bank.

:class:`MemberNetwork` is one member's UE, kept the per-member way: its own
copies of the CNN parameters, its own :class:`repro.nn.optim.Adam`, and a
forward and backward run layer by layer through the loop references the
library keeps for its kernels: the member loops
``stacked_conv2d_forward_reference`` / ``stacked_conv2d_backward_reference``
at one member, the ReLU mask, :func:`stable_sigmoid`, and the pooling pair.
It reads the layer chain and the pool size off a client and never calls the
UE network's plan (``repro.fleet.bank.ue_forward`` / ``ue_backward``), the
batched conv kernels or the stacked Adam step, so the bank is checked
against an independent formulation.

:class:`MemberLoop` answers every call the program makes of a
:class:`~repro.fleet.bank.StackedUEBank` with one :class:`MemberNetwork`
per member: training steps, a bank of one per member, FedAvg as a list
``np.mean`` (``gather``), weight writes (``scatter``) and the bank's
checkpoint format.  :func:`install` makes it the store of a trainer's UE
state, so a fit replays the way per-member code would; the bank must match
it bit for bit.

The pooling forward is :func:`~repro.nn.layers.pooling.average_pool`, not
``avgpool2d_forward_reference``: the loop reference averages each window in
a different summation order, so it agrees with the reshape mean only to
rounding, while the backward reference writes each input gradient once and
agrees exactly.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, stable_sigmoid
from repro.nn.layers.base import Parameter
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pooling import average_pool, avgpool2d_backward_reference
from repro.nn.optim import Adam
from repro.nn.stacked import (
    stacked_conv2d_backward_reference,
    stacked_conv2d_forward_reference,
)
from repro.split.config import TrainingConfig
from repro.split.ue import UEClient


class MemberNetwork:
    """One member's UE network through the loop references.

    Args:
        client: the ``UEClient`` whose layer chain, pool size and current
            weights this member starts from; its parameters are copied.
        training: the Adam hyper-parameters and clip norm (``None``: no
            optimizer, for forward/backward checks).
    """

    def __init__(self, client: UEClient, training: Optional[TrainingConfig] = None):
        self.layers = list(client.cnn.layers)
        config = client.model_config
        self.pool_size = (config.pooling_height, config.pooling_width)
        self.parameters: List[Parameter] = [
            Parameter(param.name, param.value.copy())
            for param in client.cnn.parameters()
        ]
        self.optimizer = None
        self.gradient_clip = 0.0
        if training is not None:
            self.optimizer = Adam(
                self.parameters,
                learning_rate=training.learning_rate,
                beta1=training.beta1,
                beta2=training.beta2,
            )
            self.gradient_clip = training.gradient_clip_norm
        self._saved: list = []
        self._pool_input_shape: tuple = ()

    def _conv_parameters(self):
        """``(layer, weight, bias)`` per layer, ``None`` for the non-convs."""
        params = iter(self.parameters)
        return [
            (layer, next(params), next(params))
            if isinstance(layer, Conv2D)
            else (layer, None, None)
            for layer in self.layers
        ]

    def forward(self, image_sequences: np.ndarray) -> np.ndarray:
        """Cut-layer activations ``(batch, L, F)`` of a minibatch."""
        images = np.asarray(image_sequences, dtype=np.float64)
        batch, length, height, width = images.shape
        x = images.reshape(batch * length, 1, height, width)
        self._saved = []
        for layer, weight, bias in self._conv_parameters():
            if isinstance(layer, Conv2D):
                self._saved.append(x)
                x = stacked_conv2d_forward_reference(
                    weight.value[None],
                    bias.value[None],
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
        steps = list(zip(self._conv_parameters(), self._saved))
        for (layer, weight, bias), saved in reversed(steps):
            if isinstance(layer, Conv2D):
                grad_inputs, grad_weight, grad_bias = stacked_conv2d_backward_reference(
                    weight.value[None],
                    saved[None],
                    grad[None],
                    layer.stride,
                    layer.padding,
                )
                weight.grad += grad_weight[0]
                bias.grad += grad_bias[0]
                grad = grad_inputs[0]
            elif isinstance(layer, ReLU):
                grad = grad * saved
            else:
                grad = grad * saved * (1.0 - saved)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def apply_update(self) -> None:
        """Clip, take one optimizer step and clear the gradients."""
        if self.gradient_clip > 0:
            self.optimizer.clip_gradients(self.gradient_clip)
        self.optimizer.step()
        self.optimizer.zero_grad()

    def step(self, cut_gradient: np.ndarray) -> None:
        """Backpropagate and take this member's own optimizer step."""
        self.backward(cut_gradient)
        self.apply_update()


class MemberLoop:
    """Each member's own network, one at a time.

    Same calls as :class:`~repro.fleet.bank.StackedUEBank`, on lists of
    per-member arrays and per-member optimizers.

    Args:
        members: one :class:`MemberNetwork` per member, in member order.
    """

    def __init__(self, members: Sequence[MemberNetwork]):
        self._members: List[MemberNetwork] = list(members)

    def member(self, index: int) -> "MemberLoop":
        """The loop of member ``index`` alone (its network, not a copy)."""
        return MemberLoop([self._members[index]])

    def weights(self, member: int) -> List[np.ndarray]:
        """Member ``member``'s parameters as one-member stacks (views)."""
        return [param.value[None] for param in self._members[member].parameters]

    def gather(self) -> List[np.ndarray]:
        """FedAvg's reduction: the list mean of every member's parameters."""
        return [
            np.mean([member.parameters[index].value for member in self._members], axis=0)
            for index in range(len(self._members[0].parameters))
        ]

    def scatter(self, weights: Sequence[np.ndarray], members) -> None:
        """Set the selected members' parameters to ``weights``, one by one."""
        for index in np.arange(len(self._members))[members]:
            for param, weight in zip(self._members[index].parameters, weights):
                param.value[...] = weight

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

    def state_dict(self) -> Dict[str, np.ndarray]:
        """The members' states, stacked into the bank's checkpoint format."""
        states = [member.optimizer.state_dict() for member in self._members]
        state = {
            "step_counts": np.array(
                [member_state["step_count"] for member_state in states],
                dtype=np.int64,
            )
        }
        for index in range(len(self._members[0].parameters)):
            state[f"values/{index}"] = np.stack(
                [member.parameters[index].value for member in self._members]
            )
            for slot in ("first_moment", "second_moment"):
                key = f"slot/{slot}/{index}"
                state[key] = np.stack([member_state[key] for member_state in states])
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the bank's checkpoint format into each member."""
        for row, member in enumerate(self._members):
            optimizer_state = member.optimizer.state_dict()
            optimizer_state["step_count"] = state["step_counts"][row]
            for index, param in enumerate(member.parameters):
                param.value[...] = state[f"values/{index}"][row]
                for slot in ("first_moment", "second_moment"):
                    key = f"slot/{slot}/{index}"
                    optimizer_state[key] = state[key][row]
            member.optimizer.load_state_dict(optimizer_state)


def install(trainer) -> MemberLoop:
    """Make a :class:`MemberLoop` the store of ``trainer``'s UE state.

    Each member starts from its row of the fleet's bank; the loop becomes
    the fleet's bank, each client's rows become views of its member's
    parameters, and each protocol's bank of one is rebuilt over them.
    """
    fleet = trainer.fleet
    training = trainer.config.training
    oracle = MemberLoop([MemberNetwork(member.ue, training) for member in fleet])
    oracle.load_state_dict(fleet.bank.state_dict())
    fleet.bank = oracle
    for member in fleet:
        member.ue.join(oracle, member.index)
        member.protocol._bank = None
    return oracle


def oracle_trainer(config, fleet_config):
    """A ``FleetTrainer`` whose UE state and steps are a :class:`MemberLoop`."""
    from repro.fleet import FleetTrainer

    trainer = FleetTrainer(config, fleet_config)
    install(trainer)
    return trainer
