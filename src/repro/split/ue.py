"""UE-side client of the split-learning system.

The UE owns the convolutional layers, the pooling compressor and their Adam
state.  Training steps run in a :class:`~repro.fleet.bank.StackedUEBank`
that gathers from and scatters back into the client, which therefore holds
the canonical state between steps; inference runs :meth:`UEClient.forward`.
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.optim import Adam
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.models import build_pooling_compressor, build_ue_cnn
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
        if not model_config.use_image:
            raise ValueError("UEClient requires an image-enabled configuration")
        self.model_config = model_config
        self.cnn: Sequential = build_ue_cnn(model_config, seed=seed)
        self.compressor: Sequential = build_pooling_compressor(model_config)
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
        self._batch_shape: tuple[int, int] | None = None

    # -- forward -------------------------------------------------------------------
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
        flat = images.reshape(batch * length, 1, height, width)
        output_image = self.cnn.forward(flat)
        features = self.compressor.forward(output_image)
        return features.reshape(batch, length, -1)

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
        output = self.cnn.forward(images[:, None, :, :])
        return output[:, 0, :, :]

    def compressed_images(self, images: np.ndarray) -> np.ndarray:
        """Pooled CNN output images (the actually transmitted representation).

        Returns an array of shape ``(N, H/wH, W/wW)``.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 3:
            raise ValueError("expected images of shape (N, H, W)")
        output = self.cnn.forward(images[:, None, :, :])
        pooled = self.compressor.layers[0].forward(output)
        return pooled[:, 0, :, :]

    # -- backward (per-member reference) -------------------------------------------
    def backward(self, cut_layer_gradient: np.ndarray) -> None:
        """Backpropagate the cut-layer gradient received from the BS.

        With :meth:`apply_update`, the per-member reference that the tests
        check the training engine, the stacked bank, against bitwise.
        """
        if self._batch_shape is None:
            raise RuntimeError("backward() called before forward()")
        batch, length = self._batch_shape
        gradient = np.asarray(cut_layer_gradient, dtype=np.float64)
        if gradient.shape[:2] != (batch, length):
            raise ValueError(
                f"cut-layer gradient batch shape {gradient.shape[:2]} does not "
                f"match the forward pass {(batch, length)}"
            )
        flat = gradient.reshape(batch * length, -1)
        grad_output_image = self.compressor.backward(flat)
        self.cnn.backward(grad_output_image)

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

        The pooling compressor has no trainable parameters, so the CNN state
        is the complete UE-side model.  The returned arrays are copies: the
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
