"""The UE network, run over stacked weights: one plan, one forward, one backward.

The UE half of the split model is a small CNN followed by the average-pooling
compressor whose output is the transmitted payload.  :func:`ue_plan` derives,
once per :class:`~repro.split.ue.UEClient`, the one description of that
network the program runs: its conv, ReLU and sigmoid steps (the first conv
skips its input gradient, since its input is data) and the pool size of the
:class:`~repro.split.config.ModelConfig`.  :func:`ue_forward` and
:func:`ue_backward` run a plan over weights stacked along a leading member
axis through the batched kernels of :mod:`repro.nn.stacked`, so N identical
UEs cost a handful of broadcasted GEMMs.  Both callers share them:

* :class:`StackedUEBank` trains every UE in both fleet modes, as the UE half
  of the one training step, :func:`~repro.fleet.trainer.joint_step`: a
  parallel-average fleet runs through one bank, and each rotation protocol
  trains its UE through a bank of one;
* ``UEClient`` runs the same plan at one member (``value[None]`` views of its
  parameters) for evaluation, Fig. 2, Fig. 3b and Table 1.

Each caller owns the buffer cache a pass fills (im2col columns, padding and
dilation buffers, activation masks), and reuses it while the geometry stays.

The bank is a *view* over the members' ``UEClient`` objects, not a second
copy of the truth: :meth:`StackedUEBank.gather` snapshots the members'
weights and Adam state, the training steps mutate only the stacked arrays,
and :meth:`StackedUEBank.scatter` writes them back (after a parallel round,
before weight averaging; after every rotation step that updated).  The
stacked kernels and the masked Adam step are bitwise-identical member for
member to the per-member loop of ``tests/fleet/member_loop_oracle.py``, so
checkpoints, hand-offs, averages and inference read exactly the arrays a
per-member run would produce.

The bank's passes run on threads, over contiguous slices of members: each
group of members with one batch size (all of them, with equal shards) is
cut into ``min(workers, members in group)`` slices, where ``workers`` is
:func:`~repro.utils.parallel.available_workers` (the CPUs this process may
use; 1 inside a pool worker), and no option changes it.  Every member's
GEMMs and reductions are independent of the other members in its stack, so
the slicing is bitwise invisible; a bank of one never starts a thread.
Members with different batch sizes (uneven strided shards) exchange
per-member lists instead of one array.

The bank is checkpointable (``state_dict``/``load_state_dict``, registered
in :mod:`repro.analysis.contract`), but checkpoints never embed it: the
canonical copy lives in the members between steps and rounds.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, stable_sigmoid
from repro.nn.layers.conv import Conv2D, dilated_buffer, padded_buffer
from repro.nn.layers.pooling import average_pool
from repro.nn.layers.sequential import Sequential
from repro.nn.optim import Adam
from repro.nn.stacked import (
    adam_bias_corrections,
    stacked_adam_update,
    stacked_clip_scales,
    stacked_conv2d_backward,
    stacked_conv2d_forward,
    stacked_gradient_norms,
)
from repro.split.config import ModelConfig
from repro.split.ue import UEClient
from repro.utils import parallel


class UEPlan(NamedTuple):
    """The UE network as :func:`ue_forward` and :func:`ue_backward` run it.

    ``steps`` holds one tuple per CNN layer: ``("conv", weight_index,
    bias_index, stride, padding, needs_input_grad)``, ``("relu",)`` or
    ``("sigmoid",)``; the indices address the CNN's parameter list.
    ``pool_size`` is the ``(w_H, w_W)`` average-pooling region.
    """

    steps: Tuple[Tuple, ...]
    pool_size: Tuple[int, int]


def ue_plan(cnn: Sequential, config: ModelConfig) -> UEPlan:
    """Derive the plan of a UE CNN built by ``build_ue_cnn(config)``.

    Checks the layer chain once: every conv is biased and takes the channels
    the previous one produced, and the network maps a ``1 x N_H x N_W``
    depth image to a ``1 x N_H x N_W`` output image, which the payload
    accounting assumes.  The first conv sees the raw images, so it skips its
    input gradient and backward stops there.
    """
    steps: List[Tuple] = []
    param_cursor = 0
    channels, height, width = 1, config.image_height, config.image_width
    for layer in cnn.layers:
        if isinstance(layer, Conv2D):
            if not layer.use_bias:
                raise ValueError("the UE network expects biased convolutions")
            if layer.in_channels != channels:
                raise ValueError(
                    f"{layer.name}: expects {layer.in_channels} input channels, "
                    f"the previous layer produces {channels}"
                )
            steps.append(
                (
                    "conv",
                    param_cursor,
                    param_cursor + 1,
                    layer.stride,
                    layer.padding,
                    param_cursor > 0,
                )
            )
            param_cursor += 2
            channels, height, width = layer.output_shape(height, width)
        elif isinstance(layer, ReLU):
            steps.append(("relu",))
        elif isinstance(layer, Sigmoid):
            steps.append(("sigmoid",))
        else:
            raise ValueError(
                f"the UE network cannot run CNN layer {type(layer).__name__}"
            )
    image = (1, config.image_height, config.image_width)
    if (channels, height, width) != image:
        raise ValueError(
            f"the UE CNN maps a {image} image to {(channels, height, width)}; "
            f"the payload needs a {image} output image"
        )
    return UEPlan(tuple(steps), (config.pooling_height, config.pooling_width))


def ue_forward(
    plan: UEPlan,
    weights: Sequence[np.ndarray],
    images: np.ndarray,
    cache: Dict,
    pooled: bool = True,
) -> np.ndarray:
    """Run the UE network for every member at once.

    Args:
        plan: the network, from :func:`ue_plan`.
        weights: the CNN parameters in plan order, each stacked along a
            leading member axis.
        images: ``(members, frames, 1, H, W)`` depth images, one batch per
            member.
        cache: the caller's buffer cache: reused buffers are read from it,
            and the pass leaves in it what :func:`ue_backward` needs.
        pooled: apply the average-pooling compressor; ``False`` returns the
            output images instead.

    Returns:
        ``(members, frames, 1, H / w_H, W / w_W)`` pooled maps, or the
        ``(members, frames, 1, H, W)`` output images.
    """
    members, frames = images.shape[:2]
    x = images
    for step, spec in enumerate(plan.steps):
        if spec[0] == "conv":
            _, weight_index, bias_index, stride, padding, _ = spec
            padded = cache[f"padded/{step}"] = padded_buffer(
                (members * frames,) + x.shape[2:],
                padding,
                cache.get(f"padded/{step}"),
            )
            output, cache[f"cols/{step}"] = stacked_conv2d_forward(
                weights[weight_index],
                weights[bias_index],
                x,
                stride,
                padding,
                cols_out=cache.get(f"cols/{step}"),
                padded_out=padded,
            )
            cache[f"conv_input_shape/{step}"] = x.shape
            x = output
        elif spec[0] == "relu":
            mask = x > 0
            cache[f"mask/{step}"] = mask
            x = x * mask
        else:  # sigmoid
            x = stable_sigmoid(x)
            cache[f"sigmoid/{step}"] = x
    if not pooled:
        return x
    cache["pool_input_shape"] = x.shape
    pooled_maps = average_pool(
        x.reshape((members * frames,) + x.shape[2:]), plan.pool_size
    )
    return pooled_maps.reshape((members, frames) + pooled_maps.shape[1:])


def ue_backward(
    plan: UEPlan,
    weights: Sequence[np.ndarray],
    cut_gradients,
    cache: Dict,
) -> List[Optional[np.ndarray]]:
    """Gradients of the last pooled :func:`ue_forward` for every member.

    Args:
        plan / weights / cache: as passed to that forward.
        cut_gradients: the gradient of each member's pooled maps, any shape
            holding ``members * frames * H / w_H * W / w_W`` values in
            member-major order.

    Returns:
        One stacked gradient per CNN parameter, in plan order.
    """
    pool_shape = cache["pool_input_shape"]
    members, frames, channels, map_h, map_w = pool_shape
    ph, pw = plan.pool_size
    scale = 1.0 / (ph * pw)
    grad_pooled = np.asarray(cut_gradients, dtype=np.float64).reshape(
        members * frames, channels, map_h // ph, map_w // pw
    )
    grad = np.empty((members * frames, channels, map_h, map_w))
    grad.reshape(members * frames, channels, map_h // ph, ph, map_w // pw, pw)[
        ...
    ] = grad_pooled[:, :, :, None, :, None] * scale
    x_grad = grad.reshape(pool_shape)
    grads: List[Optional[np.ndarray]] = [None] * len(weights)
    for step in reversed(range(len(plan.steps))):
        spec = plan.steps[step]
        if spec[0] == "conv":
            _, weight_index, bias_index, stride, padding, needs_input_grad = spec
            input_shape = cache[f"conv_input_shape/{step}"]
            kernels = weights[weight_index]
            grad_output = x_grad.reshape(
                (members, frames, kernels.shape[1]) + x_grad.shape[-2:]
            )
            dilated = None
            if needs_input_grad:
                dilated = cache[f"dilated/{step}"] = dilated_buffer(
                    (members * frames, kernels.shape[1]),
                    input_shape[3:],
                    kernels.shape[3:],
                    cache.get(f"dilated/{step}"),
                )
            x_grad, grads[weight_index], grads[bias_index] = stacked_conv2d_backward(
                kernels,
                cache[f"cols/{step}"],
                grad_output,
                input_shape,
                stride,
                padding,
                needs_input_grad=needs_input_grad,
                dilated_out=dilated,
            )
        elif spec[0] == "relu":
            x_grad = x_grad * cache[f"mask/{step}"]
        else:  # sigmoid
            output = cache[f"sigmoid/{step}"]
            x_grad = x_grad * output * (1.0 - output)
    return grads


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

        self._plan = template.plan
        self._param_refs: List[List] = [list(c.cnn.parameters()) for c in self._clients]
        reference = self._param_refs[0]
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
        self._pass_sizes: Tuple[int, ...] = ()
        self._workers = 0
        self._passes: List[Tuple[object, Dict]] = []
        self.gather()

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
    def _member_passes(self, sizes: Sequence[int]) -> List[Tuple[object, Dict]]:
        """``(member selector, buffer cache)`` of each stacked pass.

        Members are grouped by batch size (one group when all sizes agree),
        and each group is cut into ``min(workers, members in group)``
        contiguous runs of members, one pass each: a ``slice`` when there is
        one group, otherwise an index array.  The passes and their buffers
        persist while the sizes and the worker count stay the same.
        """
        sizes = tuple(int(size) for size in sizes)
        workers = min(parallel.available_workers(), len(sizes))
        if (sizes, workers) != (self._pass_sizes, self._workers):
            by_size = np.array(sizes)
            groups = [np.flatnonzero(by_size == size) for size in sorted(set(sizes))]
            parts = [
                part
                for group in groups
                for part in np.array_split(group, min(workers, len(group)))
            ]
            if len(groups) == 1:
                parts = [slice(int(part[0]), int(part[-1]) + 1) for part in parts]
            self._passes = [(part, {}) for part in parts]
            self._pass_sizes, self._workers = sizes, workers
        return self._passes

    def _run_passes(self, run_pass, inputs) -> list:
        """``run_pass(selector, inputs, cache)`` of every pass, in pass order.

        Several passes run on a thread pool of the bank's worker count:
        each touches only its own members' slices and buffers, and numpy's
        GEMMs and copies release the GIL.  The pool lives for this call
        only, so no thread outlives it (a fork worker would inherit a pool
        without its threads).
        """
        if len(self._passes) == 1:
            selector, cache = self._passes[0]
            return [run_pass(selector, inputs, cache)]
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                pool.submit(run_pass, selector, inputs, cache)
                for selector, cache in self._passes
            ]
            return [future.result() for future in futures]

    def forward(self, image_sequences):
        """All members' UE networks in batched sweeps.

        Args:
            image_sequences: each member's own minibatch ``(batch, L, H, W)``,
                as one ``(members, batch, L, H, W)`` array or as a list of
                per-member arrays whose batch sizes may differ.

        Returns:
            Cut-layer activations, bitwise equal to each member's own
            forward pass: one ``(members, batch, L, F)``
            array when every batch size agrees, else a per-member list.
        """
        members = len(self._clients)
        if len(image_sequences) != members:
            raise ValueError(
                f"expected image sequences for {members} members, got "
                f"{len(image_sequences)}"
            )
        if isinstance(image_sequences, list) and members == 1:
            # A bank of one views its member's batch instead of stacking a copy.
            image_sequences = np.asarray(image_sequences[0])[None]
        passes = self._member_passes([len(images) for images in image_sequences])
        pooled = self._run_passes(self._forward_pass, image_sequences)
        if len(passes) == 1:
            return pooled[0]
        if isinstance(passes[0][0], slice):
            return np.concatenate(pooled)
        features: list = [None] * members
        for (selector, _), group in zip(passes, pooled):
            for position, member in enumerate(selector):
                features[member] = group[position]
        return features

    def _forward_pass(self, selector, image_sequences, cache: Dict) -> np.ndarray:
        """One stacked pass over the members ``selector`` picks."""
        images = np.asarray(_take(image_sequences, selector), dtype=np.float64)
        if images.ndim != 5:
            raise ValueError(
                f"expected (members, batch, L, H, W) image sequences, got "
                f"{images.shape}"
            )
        members, batch, length, height, width = images.shape
        pooled = ue_forward(
            self._plan,
            [value[selector] for value in self._values],
            images.reshape(members, batch * length, 1, height, width),
            cache,
        )
        return pooled.reshape(members, batch, length, -1)

    def backward(self, cut_gradients) -> None:
        """Backpropagate all members' cut-layer gradients into ``_grads``.

        Args:
            cut_gradients: one gradient per member, in the form
                :meth:`forward` returned (zeros for members whose downlink
                failed: their parameter gradients come out zero, and their
                update is masked off anyway).

        Runs the passes of the last :meth:`forward`; the plan's first
        convolution skips its input gradient, which ends each pass.
        """
        self._run_passes(self._backward_pass, cut_gradients)

    def _backward_pass(self, selector, cut_gradients, cache: Dict) -> None:
        """The backward of one :meth:`_forward_pass`."""
        weights = [value[selector] for value in self._values]
        grads = ue_backward(
            self._plan, weights, _take(cut_gradients, selector), cache
        )
        for index, grad in enumerate(grads):
            # `+ 0.0` mirrors an accumulate-from-zero (`grad +=`), so even
            # signed zeros match a per-member step bitwise.
            self._grads[index][selector] = grad + 0.0

    def backward_and_update(self, members: Sequence[int], cut_gradients) -> None:
        """Backpropagate and update the listed members only.

        ``cut_gradients`` holds one gradient per listed member, stacked or as
        a list (the form :meth:`forward` returned); every other member gets
        a zero gradient and is masked out of the update.
        """
        tail = np.shape(cut_gradients[0])[1:]
        full = [np.zeros((size,) + tail) for size in self._pass_sizes]
        for member, gradient in zip(members, cut_gradients):
            full[member] = gradient
        mask = np.zeros(len(self._clients), dtype=bool)
        mask[list(members)] = True
        self.backward(full)
        self.apply_updates(mask)

    def apply_updates(self, mask: np.ndarray) -> None:
        """Clip + Adam-step the members selected by ``mask``, in place.

        Matches ``UEClient.apply_update`` per selected member: optional
        global-norm clipping, one optimizer step, gradients cleared.
        Masked-out members keep weights, moments and step counts untouched.
        A non-finite gradient norm raises ``FloatingPointError`` naming the
        members, before any state changes.
        """
        mask = np.asarray(mask, dtype=bool)
        norms = stacked_gradient_norms(self._grads)
        diverged = np.flatnonzero(~np.isfinite(norms))
        if diverged.size:
            raise FloatingPointError(
                f"non-finite UE gradient norm at bank member(s) "
                f"{diverged.tolist()} of {len(norms)}"
            )
        if self._gradient_clip > 0:
            scales = stacked_clip_scales(norms, self._gradient_clip)
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


def _take(values, selector):
    """The members of ``values`` (an array or a list) ``selector`` picks."""
    if isinstance(selector, slice):
        return values[selector]
    return [values[member] for member in selector]


__all__ = ["StackedUEBank", "UEPlan", "ue_backward", "ue_forward", "ue_plan"]
