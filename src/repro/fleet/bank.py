"""The member compute of ``FleetTrainer``'s joint step: loop or stacked.

The joint step reaches the members' CNN halves through two calls: ``forward``
on the members' image batches, and ``backward_and_update`` for the cut
gradients that reached their members.  Two classes implement them:

* :class:`MemberLoop` runs every member's own ``UEClient`` one at a time.  It
  is the reference, and the only compute for rounds whose shards give the
  members unequal batch sizes.
* :class:`StackedUEBank` fuses the N identical architectures into stacked
  arrays with a leading member axis and drives the batched kernels of
  :mod:`repro.nn.stacked`, turning N Python-level model evaluations into a
  handful of broadcasted GEMMs per joint step.

The bank is a *view* over the members' own ``UEClient`` objects, not a third
copy of the truth: :meth:`StackedUEBank.gather` snapshots every member's
weights and Adam state into the stacked arrays at the start of a parallel
round, the joint steps mutate only the stacked arrays, and
:meth:`StackedUEBank.scatter` writes the results back into the member
objects before weight averaging.  Because the batched kernels are
bitwise-identical to the member loop (same ``np.matmul`` lowering, same
masked-update operation order), a gather → steps → scatter round produces
exactly the arrays :class:`MemberLoop` would have — which keeps fleet
checkpoints backend-agnostic and an N=1 parallel-average fleet draw-for-draw
equal to the single-UE rotation fleet, ``SplitTrainer``.

The bank itself is checkpointable (``state_dict``/``load_state_dict``,
registered in :mod:`repro.analysis.contract`), although fleet checkpoints do
not embed it: its state is derived, and the canonical copy always lives in
the members between rounds.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, stable_sigmoid
from repro.nn.layers.conv import Conv2D, dilated_buffer, padded_buffer
from repro.nn.layers.pooling import AveragePool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.optim import Adam
from repro.nn.stacked import (
    adam_bias_corrections,
    stacked_adam_update,
    stacked_clip_scales,
    stacked_conv2d_backward,
    stacked_conv2d_forward,
)
from repro.split.ue import UEClient


class StackedUEBank:
    """Per-parameter stacked weights + Adam state for N identical UEs.

    Args:
        clients: the fleet members' ``UEClient`` objects, each with an Adam
            optimizer and the same architecture.  The bank holds references
            and gathers their state immediately.
    """

    def __init__(self, clients: Sequence[UEClient]):
        if not clients:
            raise ValueError("StackedUEBank requires at least one UE client")
        self._clients: List[UEClient] = list(clients)
        template = self._clients[0]
        for client in self._clients:
            if not isinstance(client.optimizer, Adam):
                raise ValueError("StackedUEBank requires Adam-equipped clients")
            if client.model_config != template.model_config:
                raise ValueError("StackedUEBank requires identical architectures")

        # One entry per CNN layer: ("conv", weight_index, bias_index,
        # stride, padding, needs_input_grad) or ("relu",) / ("sigmoid",).
        # Tuples only, so the plan reads as immutable configuration.
        plan: List[Tuple] = []
        param_cursor = 0
        for layer in template.cnn.layers:
            if isinstance(layer, Conv2D):
                if not layer.use_bias:
                    raise ValueError("StackedUEBank expects biased convolutions")
                plan.append(
                    (
                        "conv",
                        param_cursor,
                        param_cursor + 1,
                        layer.stride,
                        layer.padding,
                        layer.needs_input_grad,
                    )
                )
                param_cursor += 2
            elif isinstance(layer, ReLU):
                plan.append(("relu",))
            elif isinstance(layer, Sigmoid):
                plan.append(("sigmoid",))
            else:
                raise ValueError(
                    f"StackedUEBank cannot batch CNN layer {type(layer).__name__}"
                )
        pool_size = None
        for layer in template.compressor.layers:
            if isinstance(layer, AveragePool2D):
                pool_size = layer.pool_size
            elif not isinstance(layer, Flatten):
                raise ValueError(
                    f"StackedUEBank cannot batch compressor layer "
                    f"{type(layer).__name__}"
                )
        if pool_size is None:
            raise ValueError("StackedUEBank expects an AveragePool2D compressor")
        self._plan = tuple(plan)
        self._pool_size = pool_size

        self._param_refs: List[List] = [list(c.cnn.parameters()) for c in self._clients]
        reference = self._param_refs[0]
        if len(reference) != param_cursor:
            raise ValueError("unexpected CNN parameter count")
        for refs in self._param_refs[1:]:
            if [p.shape for p in refs] != [p.shape for p in reference]:
                raise ValueError("members disagree on parameter shapes")

        optimizer = template.optimizer
        self._learning_rate = optimizer.learning_rate
        self._beta1 = optimizer.beta1
        self._beta2 = optimizer.beta2
        self._epsilon = optimizer.epsilon
        self._gradient_clip = template._gradient_clip
        for client in self._clients[1:]:
            same = (
                client.optimizer.learning_rate == self._learning_rate
                and client.optimizer.beta1 == self._beta1
                and client.optimizer.beta2 == self._beta2
                and client.optimizer.epsilon == self._epsilon
                and client._gradient_clip == self._gradient_clip
            )
            if not same:
                raise ValueError("members disagree on optimizer hyper-parameters")

        self._values: List[np.ndarray] = []
        self._first_moment: List[np.ndarray] = []
        self._second_moment: List[np.ndarray] = []
        self._step_counts = np.zeros(len(self._clients), dtype=np.int64)
        self._grads: List[np.ndarray] = []
        self._cache: Dict[str, object] = {}
        self.gather()

    @property
    def num_members(self) -> int:
        return len(self._clients)

    # -- member synchronization ------------------------------------------------
    def gather(self) -> None:
        """Snapshot every member's weights and Adam state into the stack."""
        members = len(self._clients)
        slots = [client.optimizer._slots() for client in self._clients]
        self._values = []
        self._first_moment = []
        self._second_moment = []
        for index in range(len(self._param_refs[0])):
            self._values.append(
                np.stack([self._param_refs[n][index].value for n in range(members)])
            )
            self._first_moment.append(
                np.stack([slots[n]["first_moment"][index] for n in range(members)])
            )
            self._second_moment.append(
                np.stack([slots[n]["second_moment"][index] for n in range(members)])
            )
        self._step_counts = np.array(
            [client.optimizer.step_count for client in self._clients], dtype=np.int64
        )
        self._grads = [np.zeros_like(value) for value in self._values]

    def scatter(self) -> None:
        """Write the stacked state back into the member objects, in place."""
        for member, client in enumerate(self._clients):
            slots = client.optimizer._slots()
            for index, param in enumerate(self._param_refs[member]):
                param.value[...] = self._values[index][member]
                slots["first_moment"][index][...] = self._first_moment[index][member]
                slots["second_moment"][index][...] = self._second_moment[index][member]
            client.optimizer.step_count = int(self._step_counts[member])

    # -- batched compute -------------------------------------------------------
    def forward(self, image_sequences: np.ndarray) -> np.ndarray:
        """All members' CNN + compressor passes in one batched sweep.

        Args:
            image_sequences: ``(members, batch, L, H, W)`` — each member's
                own minibatch of image sequences, as one array or as a list
                of equal-shaped per-member arrays.

        Returns:
            Cut-layer activations ``(members, batch, L, F)``, bitwise equal
            to stacking each member's ``UEClient.forward`` output.
        """
        images = np.asarray(image_sequences, dtype=np.float64)
        if images.ndim != 5 or images.shape[0] != len(self._clients):
            raise ValueError(
                f"expected (members={len(self._clients)}, batch, L, H, W) "
                f"image sequences, got {images.shape}"
            )
        members, batch, length, height, width = images.shape
        flat_batch = batch * length
        x = images.reshape(members, flat_batch, 1, height, width)
        cache: Dict[str, object] = self._cache
        for step, spec in enumerate(self._plan):
            if spec[0] == "conv":
                _, weight_index, bias_index, stride, padding, _ = spec
                cols_key = f"cols/{step}"
                padded = cache[f"padded/{step}"] = padded_buffer(
                    (members * flat_batch,) + x.shape[2:],
                    padding,
                    cache.get(f"padded/{step}"),
                )
                output, cols = stacked_conv2d_forward(
                    self._values[weight_index],
                    self._values[bias_index],
                    x,
                    stride,
                    padding,
                    cols_out=cache.get(cols_key),
                    padded_out=padded,
                )
                cache[cols_key] = cols
                cache[f"conv_input_shape/{step}"] = x.shape
                x = output
            elif spec[0] == "relu":
                mask = x > 0
                cache[f"mask/{step}"] = mask
                x = x * mask
            else:  # sigmoid
                x = stable_sigmoid(x)
                cache[f"sigmoid/{step}"] = x
        channels, map_h, map_w = x.shape[2:]
        ph, pw = self._pool_size
        cache["pool_input_shape"] = x.shape
        pooled = x.reshape(
            members * flat_batch, channels, map_h // ph, ph, map_w // pw, pw
        ).mean(axis=(3, 5))
        return pooled.reshape(members, batch, length, -1)

    def backward(self, cut_gradients: np.ndarray) -> None:
        """Backpropagate all members' cut-layer gradients into ``_grads``.

        Args:
            cut_gradients: ``(members, batch, L, F)`` — zeros for members
                whose downlink failed (their parameter gradients come out
                zero, and their update is masked off anyway).

        A convolution built with ``needs_input_grad=False`` (the first one)
        ends the pass, as it ends ``Sequential.backward`` in :class:`MemberLoop`.
        """
        members = len(self._clients)
        pool_shape = self._cache["pool_input_shape"]
        _, flat_batch, channels, map_h, map_w = pool_shape
        ph, pw = self._pool_size
        scale = 1.0 / (ph * pw)
        grad_pooled = np.asarray(cut_gradients, dtype=np.float64).reshape(
            members * flat_batch, channels, map_h // ph, map_w // pw
        )
        grad = np.empty((members * flat_batch, channels, map_h, map_w))
        grad.reshape(
            members * flat_batch, channels, map_h // ph, ph, map_w // pw, pw
        )[...] = grad_pooled[:, :, :, None, :, None] * scale
        x_grad = grad.reshape(pool_shape)
        cache = self._cache
        for step in reversed(range(len(self._plan))):
            spec = self._plan[step]
            if spec[0] == "conv":
                _, weight_index, bias_index, stride, padding, needs_input_grad = spec
                input_shape = cache[f"conv_input_shape/{step}"]
                weights = self._values[weight_index]
                grad_output = x_grad.reshape(
                    (members, flat_batch, weights.shape[1]) + x_grad.shape[-2:]
                )
                dilated = None
                if needs_input_grad:
                    dilated = cache[f"dilated/{step}"] = dilated_buffer(
                        (members * flat_batch, weights.shape[1]),
                        input_shape[3:],
                        weights.shape[3:],
                        cache.get(f"dilated/{step}"),
                    )
                x_grad, grad_weights, grad_biases = stacked_conv2d_backward(
                    weights,
                    cache[f"cols/{step}"],
                    grad_output,
                    input_shape,
                    stride,
                    padding,
                    needs_input_grad=needs_input_grad,
                    dilated_out=dilated,
                )
                # `+ 0.0` mirrors the layers' accumulate-from-zero (`grad +=`)
                # so even signed zeros match MemberLoop bitwise.
                self._grads[weight_index] = grad_weights + 0.0
                self._grads[bias_index] = grad_biases + 0.0
            elif spec[0] == "relu":
                x_grad = x_grad * cache[f"mask/{step}"]
            else:  # sigmoid
                output = cache[f"sigmoid/{step}"]
                x_grad = x_grad * output * (1.0 - output)

    def backward_and_update(
        self, members: Sequence[int], cut_gradients: np.ndarray
    ) -> None:
        """Backpropagate and update the listed members only.

        ``cut_gradients`` is ``(len(members), batch, L, F)``, one slice per
        listed member; every other member gets a zero gradient and is masked
        out of the update.
        """
        grad_stack = np.zeros((len(self._clients),) + cut_gradients.shape[1:])
        grad_stack[members] = cut_gradients
        mask = np.zeros(len(self._clients), dtype=bool)
        mask[members] = True
        self.backward(grad_stack)
        self.apply_updates(mask)

    def apply_updates(self, mask: np.ndarray) -> None:
        """Clip + Adam-step the members selected by ``mask``, in place.

        Mirrors ``UEClient.apply_update`` per selected member: optional
        global-norm clipping, one optimizer step, gradients cleared.
        Masked-out members keep weights, moments and step counts untouched.
        """
        mask = np.asarray(mask, dtype=bool)
        if self._gradient_clip > 0:
            scales = stacked_clip_scales(self._grads, self._gradient_clip)
            for grad in self._grads:
                grad *= scales.reshape((len(scales),) + (1,) * (grad.ndim - 1))
        self._step_counts = self._step_counts + mask.astype(np.int64)
        correction1, correction2 = adam_bias_corrections(
            self._step_counts, mask, self._beta1, self._beta2
        )
        for index, value in enumerate(self._values):
            stacked_adam_update(
                value,
                self._grads[index],
                self._first_moment[index],
                self._second_moment[index],
                mask,
                correction1,
                correction2,
                self._learning_rate,
                self._beta1,
                self._beta2,
                self._epsilon,
            )
        for grad in self._grads:
            grad[...] = 0.0

    # -- checkpointing ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Stacked weights, Adam moments and step counts (copies)."""
        state: Dict[str, np.ndarray] = {"step_counts": self._step_counts.copy()}
        for index, value in enumerate(self._values):
            state[f"values/{index}"] = value.copy()
            state[f"slot/first_moment/{index}"] = self._first_moment[index].copy()
            state[f"slot/second_moment/{index}"] = self._second_moment[index].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output; :meth:`scatter` to publish it."""
        expected = {"step_counts"}
        for index in range(len(self._values)):
            expected.update(
                (
                    f"values/{index}",
                    f"slot/first_moment/{index}",
                    f"slot/second_moment/{index}",
                )
            )
        missing = expected - set(state)
        if missing:
            raise KeyError(f"missing bank state entries: {sorted(missing)}")
        extra = set(state) - expected
        if extra:
            raise ValueError(f"unexpected bank state entries: {sorted(extra)}")
        counts = np.asarray(state["step_counts"], dtype=np.int64)
        if counts.shape != self._step_counts.shape:
            raise ValueError("step_counts member count mismatch")
        for index, value in enumerate(self._values):
            for target, key in (
                (value, f"values/{index}"),
                (self._first_moment[index], f"slot/first_moment/{index}"),
                (self._second_moment[index], f"slot/second_moment/{index}"),
            ):
                loaded = np.asarray(state[key], dtype=np.float64)
                if loaded.shape != target.shape:
                    raise ValueError(
                        f"shape mismatch for bank entry {key}: expected "
                        f"{target.shape}, got {loaded.shape}"
                    )
                target[...] = loaded
        self._step_counts = counts.copy()


class MemberLoop:
    """Per-member compute: each member's own ``UEClient``, one at a time.

    Same two joint-step calls as :class:`StackedUEBank`, on lists of
    per-member arrays, so the members' batch sizes may differ.

    Args:
        clients: the fleet members' ``UEClient`` objects, in member order.
    """

    def __init__(self, clients: Sequence[UEClient]):
        self._clients: List[UEClient] = list(clients)

    def forward(self, image_sequences: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every member's ``UEClient.forward`` on its own minibatch."""
        return [
            client.forward(images)
            for client, images in zip(self._clients, image_sequences)
        ]

    def backward_and_update(
        self, members: Sequence[int], cut_gradients: Sequence[np.ndarray]
    ) -> None:
        """Backpropagate and update the listed members, one gradient each."""
        for member, gradient in zip(members, cut_gradients):
            client = self._clients[member]
            client.backward(gradient)
            client.apply_update()


__all__ = ["MemberLoop", "StackedUEBank"]
