"""UE-side client of the split-learning system.

The UE owns the CNN parameters and their Adam state.  The network they
describe, the CNN followed by the average-pooling compressor, runs as the
stacked plan of :mod:`repro.fleet.bank`: training steps run in a
:class:`~repro.fleet.bank.StackedUEBank` that gathers from and scatters back
into the client, which therefore holds the canonical state between steps,
and inference (:meth:`UEClient.forward`, :meth:`~UEClient.output_images`,
:meth:`~UEClient.compressed_images`) runs the same plan at one member, over
buffers the client keeps.
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.optim import Adam
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.models import build_ue_cnn
from repro.utils.seeding import SeedLike


class UEClient:
    """The user-equipment half of the split model (CNN + pooling).

    Args:
        model_config: architecture description.
        training_config: optimizer hyper-parameters (``None`` disables the
            optimizer — useful for inference-only clients).
        seed: RNG seed for weight initialization.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        training_config: Optional[TrainingConfig] = None,
        seed: SeedLike = None,
    ):
        # Imported here: repro.fleet builds on this package.
        from repro.fleet.bank import ue_plan

        if not model_config.use_image:
            raise ValueError("UEClient requires an image-enabled configuration")
        self.model_config = model_config
        self.cnn: Sequential = build_ue_cnn(model_config, seed=seed)
        self.plan = ue_plan(self.cnn, model_config)
        self.optimizer = None
        if training_config is not None:
            self.optimizer = Adam(
                self.cnn.parameters(),
                learning_rate=training_config.learning_rate,
                beta1=training_config.beta1,
                beta2=training_config.beta2,
            )
        self._gradient_clip = (
            training_config.gradient_clip_norm if training_config else 0.0
        )
        # The plan's buffer cache at one member: reused from chunk to chunk
        # of equal size, and what backward() reads.
        self._buffers: Dict = {}
        self._batch_shape: tuple[int, int] | None = None

    # -- forward -------------------------------------------------------------------
    def _weights(self) -> list:
        """The CNN parameters as one-member stacks (views, not copies)."""
        return [param.value[None] for param in self.cnn.parameters()]

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
        gradients for :meth:`apply_update`.  Training does not call it: the
        bank runs the same backward for every member at once.
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

    def apply_update(self) -> None:
        """Apply one optimizer step and clear gradients."""
        if self.optimizer is None:
            raise RuntimeError("this UEClient was created without an optimizer")
        if self._gradient_clip > 0:
            self.optimizer.clip_gradients(self._gradient_clip)
        self.optimizer.step()
        self.optimizer.zero_grad()

    def zero_grad(self) -> None:
        self.cnn.zero_grad()

    # -- weight exchange ------------------------------------------------------------
    def get_weights(self) -> Dict[str, np.ndarray]:
        """``state_dict``-style copy of the CNN parameters.

        Pooling has no trainable parameters, so the CNN state is the
        complete UE-side model.  The returned arrays are copies: the
        fleet rotation hand-off and parallel averaging mutate them freely.
        """
        return self.cnn.state_dict()

    def set_weights(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`get_weights`.

        Gradients are reset; the optimizer keeps its moment estimates (the
        ``Parameter`` objects it tracks are retained, only their values
        change), which is the classic split-learning hand-off semantics.
        """
        self.cnn.load_state_dict(state)

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Complete restorable client state: CNN weights and optimizer state.

        Unlike :meth:`get_weights` (the hand-off payload), this includes the
        Adam slot buffers and step count, so a restored client continues the
        exact optimization trajectory.
        """
        state: Dict[str, Dict[str, np.ndarray]] = {"model": self.cnn.state_dict()}
        if self.optimizer is not None:
            state["optimizer"] = self.optimizer.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.cnn.load_state_dict(state["model"])
        if self.optimizer is not None:
            self.optimizer.load_state_dict(state["optimizer"])
