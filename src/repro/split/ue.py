"""UE-side client of the split-learning system.

The UE's trainable state, its CNN weights and their Adam moments and step
count, is one row of a :class:`~repro.fleet.bank.StackedUEBank`: a
standalone client owns a bank of one, and a fleet member's client is a row
of its fleet's bank (:meth:`UEClient.join`).  The CNN's parameter values
are views of that row, so nothing copies UE state in or out.  The network,
the CNN followed by the average-pooling compressor, runs as the stacked plan
of :mod:`repro.fleet.bank`: training steps run in a bank (the fleet's, or a
bank of one over the client's row), and inference (:meth:`UEClient.forward`,
:meth:`~UEClient.output_images`, :meth:`~UEClient.compressed_images`) runs
the same plan at one member over the row, with buffers the client keeps.
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Sequential
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.models import build_ue_cnn
from repro.utils.seeding import SeedLike


class UEClient:
    """The user-equipment half of the split model (CNN + pooling).

    Args:
        model_config: architecture description.
        training_config: optimizer hyper-parameters (``None`` makes an
            inference-only client, whose bank refuses updates).
        seed: RNG seed for weight initialization.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        training_config: Optional[TrainingConfig] = None,
        seed: SeedLike = None,
    ):
        # Imported here: repro.fleet builds on this package.
        from repro.fleet.bank import StackedUEBank, ue_plan

        if not model_config.use_image:
            raise ValueError("UEClient requires an image-enabled configuration")
        self.model_config = model_config
        self.cnn: Sequential = build_ue_cnn(model_config, seed=seed)
        self.plan = ue_plan(self.cnn, model_config)
        initial = [param.value for param in self.cnn.parameters()]
        self.join(StackedUEBank.broadcast(self.plan, initial, 1, training_config), 0)
        # The plan's buffer cache at one member: reused from chunk to chunk
        # of equal size, and what backward() reads.
        self._buffers: Dict = {}
        self._batch_shape: tuple[int, int] | None = None

    def join(self, bank, row: int) -> None:
        """Make row ``row`` of ``bank`` this client's UE state.

        The CNN's parameter values become views of that row, so everything
        that reads the client reads the bank; the client's previous row is
        dropped.
        """
        self.bank, self.row = bank, row
        for param, weight in zip(self.cnn.parameters(), bank.weights(row)):
            param.value = weight[0]

    # -- forward -------------------------------------------------------------------
    def _weights(self) -> list:
        """The CNN parameters as one-member stacks: views of the bank row."""
        return self.bank.weights(self.row)

    def _run(self, images: np.ndarray, pooled: bool = True) -> np.ndarray:
        """The plan's forward over ``(N, H, W)`` images at one member."""
        from repro.fleet.bank import ue_forward

        output = ue_forward(
            self.plan,
            self._weights(),
            images[None, :, None],
            self._buffers,
            pooled=pooled,
        )
        return output[0]

    def forward(self, image_sequences: np.ndarray) -> np.ndarray:
        """Run the CNN + compressor on a batch of image sequences.

        Args:
            image_sequences: array of shape ``(batch, L, H, W)``.

        Returns:
            Cut-layer activations of shape ``(batch, L, F)`` where ``F`` is the
            pooled feature size (1 for the one-pixel configuration).
        """
        images = np.asarray(image_sequences, dtype=np.float64)
        if images.ndim != 4:
            raise ValueError(
                f"expected image sequences of shape (batch, L, H, W), got "
                f"{images.shape}"
            )
        batch, length, height, width = images.shape
        if (height, width) != (
            self.model_config.image_height,
            self.model_config.image_width,
        ):
            raise ValueError(
                f"image size {(height, width)} does not match the configuration "
                f"{(self.model_config.image_height, self.model_config.image_width)}"
            )
        self._batch_shape = (batch, length)
        pooled = self._run(images.reshape(batch * length, height, width))
        return pooled.reshape(batch, length, -1)

    def output_images(self, images: np.ndarray) -> np.ndarray:
        """CNN output images (before pooling) for visualization (Fig. 2).

        Args:
            images: array of shape ``(N, H, W)``.

        Returns:
            Array of shape ``(N, H, W)`` with the single-channel CNN output.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError("expected images of shape (N, H, W)")
        return self._run(images, pooled=False)[:, 0]

    def compressed_images(self, images: np.ndarray) -> np.ndarray:
        """Pooled CNN output images (the actually transmitted representation).

        Returns an array of shape ``(N, H/wH, W/wW)``.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError("expected images of shape (N, H, W)")
        return self._run(images)[:, 0]

    # -- backward --------------------------------------------------------------------
    def backward(self, cut_layer_gradient: np.ndarray) -> None:
        """Backpropagate the cut-layer gradient of the last :meth:`forward`.

        Runs the plan's backward at one member and accumulates the parameter
        gradients into the CNN's ``Parameter.grad``.  Training does not call
        it: the bank runs the same backward for every member at once.
        """
        from repro.fleet.bank import ue_backward

        if self._batch_shape is None:
            raise RuntimeError("backward() called before forward()")
        batch, length = self._batch_shape
        gradient = np.asarray(cut_layer_gradient, dtype=np.float64)
        if gradient.shape[:2] != (batch, length):
            raise ValueError(
                f"cut-layer gradient batch shape {gradient.shape[:2]} does not "
                f"match the forward pass {(batch, length)}"
            )
        grads = ue_backward(self.plan, self._weights(), gradient, self._buffers)
        for param, grad in zip(self.cnn.parameters(), grads):
            param.grad += grad[0]
