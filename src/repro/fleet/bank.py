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
* ``UEClient`` runs the same plan at one member (``stack[k:k+1]`` views of
  its bank row) for evaluation, Fig. 2, Fig. 3b and Table 1.

Each caller owns the buffer cache a pass fills (im2col columns, the padding
buffers of each conv's input and output gradient, activation masks), and
reuses it while the geometry stays.

The bank is also the one store of UE state: every UE's CNN weights, Adam
moments and step count are a row of its stacked arrays.  A fleet builds one
bank of N rows (``UEFleet.bank``) and each member's client is a row of it: the
client's parameter values are views of the row, and a rotation protocol
trains through :meth:`StackedUEBank.member`, a bank of one that views the
same row.  So no step or round copies UE state between two stores; the
training steps update the rows in place.  :meth:`StackedUEBank.scatter`
writes one weight set into chosen rows (the fleet's initial sync, the
rotation hand-off, the FedAvg broadcast) and :meth:`StackedUEBank.gather` is
FedAvg's reduction, the mean over the member axis.  The stacked kernels, the
masked Adam step and that mean are bitwise-identical member for member to the
per-member loop of ``tests/fleet/member_loop_oracle.py``.

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
in :mod:`repro.analysis.contract`), and a fleet checkpoint stores the
fleet's bank once, so its UE leaves do not grow with the fleet.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.activations import ReLU, Sigmoid, stable_sigmoid
from repro.nn.layers.conv import Conv2D, padded_buffer
from repro.nn.layers.pooling import average_pool
from repro.nn.layers.sequential import Sequential
from repro.nn.optim import ADAM_EPSILON
from repro.nn.stacked import (
    adam_bias_corrections,
    stacked_adam_update,
    stacked_clip_scales,
    stacked_conv2d_backward,
    stacked_conv2d_forward,
    stacked_gradient_norms,
)
from repro.split.config import ModelConfig, TrainingConfig
from repro.utils import parallel


class UEPlan(NamedTuple):
    """The UE network as :func:`ue_forward` and :func:`ue_backward` run it.

    ``steps`` holds one tuple per CNN layer: ``("conv", weight_index,
    bias_index, needs_input_grad)``, ``("relu",)`` or ``("sigmoid",)``; the
    indices address the CNN's parameter list.  Every conv is a 'same' one,
    so the images keep their size until the pooling.
    ``pool_size`` is the ``(w_H, w_W)`` average-pooling region.
    """

    steps: Tuple[Tuple, ...]
    pool_size: Tuple[int, int]


def ue_plan(cnn: Sequential, config: ModelConfig) -> UEPlan:
    """Derive the plan of a UE CNN built by ``build_ue_cnn(config)``.

    Checks the layer chain once: every conv takes the channels the previous
    one produced, and the network maps a one-channel depth image to a
    one-channel output image of the same size, which the payload accounting
    assumes.  The first conv sees the raw images, so it skips its
    input gradient and backward stops there.
    """
    steps: List[Tuple] = []
    param_cursor = 0
    channels = 1
    for layer in cnn.layers:
        if isinstance(layer, Conv2D):
            if layer.in_channels != channels:
                raise ValueError(
                    f"{layer.name}: expects {layer.in_channels} input channels, "
                    f"the previous layer produces {channels}"
                )
            steps.append(("conv", param_cursor, param_cursor + 1, param_cursor > 0))
            param_cursor += 2
            channels = layer.out_channels
        elif isinstance(layer, ReLU):
            steps.append(("relu",))
        elif isinstance(layer, Sigmoid):
            steps.append(("sigmoid",))
        else:
            raise ValueError(
                f"the UE network cannot run CNN layer {type(layer).__name__}"
            )
    if channels != 1:
        raise ValueError(
            f"the UE CNN outputs {channels} channels; the payload needs a "
            f"one-channel output image"
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
            _, weight_index, bias_index, _ = spec
            kernels = weights[weight_index]
            padded = cache[f"padded/{step}"] = padded_buffer(
                (members * frames,) + x.shape[2:],
                kernels.shape[-1],
                cache.get(f"padded/{step}"),
            )
            x, cache[f"cols/{step}"] = stacked_conv2d_forward(
                kernels,
                weights[bias_index],
                x,
                cols_out=cache.get(f"cols/{step}"),
                padded_out=padded,
            )
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
            _, weight_index, bias_index, needs_input_grad = spec
            kernels = weights[weight_index]
            grad_output = x_grad.reshape(
                (members, frames, kernels.shape[1]) + x_grad.shape[-2:]
            )
            padded = None
            if needs_input_grad:
                padded = cache[f"grad_padded/{step}"] = padded_buffer(
                    (members * frames,) + grad_output.shape[2:],
                    kernels.shape[-1],
                    cache.get(f"grad_padded/{step}"),
                )
            x_grad, grads[weight_index], grads[bias_index] = stacked_conv2d_backward(
                kernels,
                cache[f"cols/{step}"],
                grad_output,
                needs_input_grad=needs_input_grad,
                padded_out=padded,
            )
        elif spec[0] == "relu":
            x_grad = x_grad * cache[f"mask/{step}"]
        else:  # sigmoid
            output = cache[f"sigmoid/{step}"]
            x_grad = x_grad * output * (1.0 - output)
    return grads


class StackedUEBank:
    """Every UE's CNN weights, Adam moments and step counts, stacked.

    The one store of UE state: each array carries a leading member axis, one
    row per UE.  A bank either owns its arrays (:meth:`broadcast`) or views
    rows of another bank's (:meth:`member`); the training steps update them
    in place, so a view's updates land in the rows it views.

    Args:
        plan: the UE network, from :func:`ue_plan`.
        training: Adam's learning rate and betas and the gradient clip norm
            (``None``: an inference-only bank, whose updates raise).
        values / first_moment / second_moment: one stacked array per CNN
            parameter, in plan order.
        step_counts: ``(members,)`` Adam step counts.
    """

    def __init__(
        self,
        plan: UEPlan,
        training: Optional[TrainingConfig],
        values: List[np.ndarray],
        first_moment: List[np.ndarray],
        second_moment: List[np.ndarray],
        step_counts: np.ndarray,
    ):
        self._plan = plan
        self._training = training
        self._values = values
        self._first_moment = first_moment
        self._second_moment = second_moment
        self._step_counts = step_counts
        self._grads = [np.zeros_like(value) for value in values]
        self._pass_sizes: Tuple[int, ...] = ()
        self._workers = 0
        self._passes: List[Tuple[object, Dict]] = []

    @classmethod
    def broadcast(
        cls,
        plan: UEPlan,
        weights: Sequence[np.ndarray],
        members: int,
        training: Optional[TrainingConfig],
    ) -> "StackedUEBank":
        """A bank of ``members`` rows that all start from ``weights`` (one
        member's CNN parameters, in plan order), with zero Adam state."""
        if members < 1:
            raise ValueError("StackedUEBank requires at least one member")
        values = [np.empty((members,) + np.shape(weight)) for weight in weights]
        bank = cls(
            plan,
            training,
            values,
            [np.zeros_like(value) for value in values],
            [np.zeros_like(value) for value in values],
            np.zeros(members, dtype=np.int64),
        )
        bank.scatter(weights, slice(None))
        return bank

    def member(self, index: int) -> "StackedUEBank":
        """A bank of one over row ``index``: views of this bank's arrays, step
        count included, with buffers of its own."""
        rows = slice(index, index + 1)
        return StackedUEBank(
            self._plan,
            self._training,
            [value[rows] for value in self._values],
            [moment[rows] for moment in self._first_moment],
            [moment[rows] for moment in self._second_moment],
            self._step_counts[rows],
        )

    # -- weight exchange -------------------------------------------------------
    def weights(self, member: int) -> List[np.ndarray]:
        """Row ``member``'s CNN parameters as one-member stacks (views)."""
        return [value[member : member + 1] for value in self._values]

    def gather(self) -> List[np.ndarray]:
        """The members' mean CNN parameters, FedAvg's reduction."""
        return [value.mean(axis=0) for value in self._values]

    def scatter(self, weights: Sequence[np.ndarray], members) -> None:
        """Write one set of CNN parameters into the rows ``members`` selects
        (any index of the member axis).  The Adam state stays per member."""
        for value, weight in zip(self._values, weights):
            value[members] = weight

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
        members = len(self._step_counts)
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
        mask = np.zeros(len(self._step_counts), dtype=bool)
        mask[list(members)] = True
        self.backward(full)
        self.apply_updates(mask)

    def apply_updates(self, mask: np.ndarray) -> None:
        """Clip + Adam-step the members selected by ``mask``, in place.

        Per selected member: optional global-norm clipping, one Adam step,
        gradients cleared, bitwise as a per-member ``repro.nn.optim.Adam``
        would.  Masked-out members keep weights, moments and step counts
        untouched.  A non-finite gradient norm raises ``FloatingPointError``
        naming the members, before any state changes.
        """
        training = self._training
        if training is None:
            raise RuntimeError("this StackedUEBank was created without training")
        mask = np.asarray(mask, dtype=bool)
        norms = stacked_gradient_norms(self._grads)
        diverged = np.flatnonzero(~np.isfinite(norms))
        if diverged.size:
            raise FloatingPointError(
                f"non-finite UE gradient norm at bank member(s) "
                f"{diverged.tolist()} of {len(norms)}"
            )
        if training.gradient_clip_norm > 0:
            scales = stacked_clip_scales(norms, training.gradient_clip_norm)
            for grad in self._grads:
                grad *= scales.reshape((len(scales),) + (1,) * (grad.ndim - 1))
        # In place: a bank of one views its row of the fleet's step counts.
        self._step_counts += mask.astype(np.int64)
        correction1, correction2 = adam_bias_corrections(
            self._step_counts, mask, training.beta1, training.beta2
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
                training.learning_rate,
                training.beta1,
                training.beta2,
                ADAM_EPSILON,
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
        """Restore :meth:`state_dict` output in place (views see it)."""
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
        self._step_counts[...] = counts


def _take(values, selector):
    """The members of ``values`` (an array or a list) ``selector`` picks."""
    if isinstance(selector, slice):
        return values[selector]
    return [values[member] for member in selector]


__all__ = ["StackedUEBank", "UEPlan", "ue_backward", "ue_forward", "ue_plan"]
