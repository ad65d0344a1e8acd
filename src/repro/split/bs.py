"""BS-side server of the split-learning system.

The base station owns the recurrent layers.  It concatenates the cut-layer
activations received from the UE with its own sequence of measured RF powers,
predicts the future received power, computes the loss and sends the cut-layer
gradient back to the UE.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.losses import MeanSquaredError
from repro.nn.optim import Adam
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.models import build_bs_rnn
from repro.utils.seeding import SeedLike


class BSServer:
    """The base-station half of the split model (RNN + regression head).

    Args:
        model_config: architecture description.
        training_config: optimizer hyper-parameters (``None`` disables the
            optimizer — inference only).
        seed: RNG seed for weight initialization.
    """

    def __init__(
        self,
        model_config: ModelConfig,
        training_config: Optional[TrainingConfig] = None,
        seed: SeedLike = None,
    ):
        self.model_config = model_config
        self.rnn: Sequential = build_bs_rnn(model_config, seed=seed)
        self.loss = MeanSquaredError()
        self.optimizer = None
        if training_config is not None:
            self.optimizer = Adam(
                self.rnn.parameters(),
                learning_rate=training_config.learning_rate,
                beta1=training_config.beta1,
                beta2=training_config.beta2,
            )
        self._gradient_clip = (
            training_config.gradient_clip_norm if training_config else 0.0
        )
        self._image_feature_size = model_config.image_feature_size

    # -- input assembly --------------------------------------------------------------
    def assemble_input(
        self,
        image_features: Optional[np.ndarray],
        rf_powers: Optional[np.ndarray],
    ) -> np.ndarray:
        """Concatenate image features and RF powers into the RNN input tensor.

        Args:
            image_features: ``(batch, L, F)`` cut-layer activations, or ``None``
                for the RF-only baseline.
            rf_powers: ``(batch, L)`` normalized received powers, or ``None``
                for the image-only baseline.

        Returns:
            Array of shape ``(batch, L, rnn_input_size)``.
        """
        config = self.model_config
        parts = []
        if config.use_image:
            if image_features is None:
                raise ValueError("image features required by this configuration")
            features = np.asarray(image_features, dtype=np.float64)
            if features.ndim != 3 or features.shape[2] != self._image_feature_size:
                raise ValueError(
                    f"expected image features of shape (batch, L, "
                    f"{self._image_feature_size}), got {features.shape}"
                )
            parts.append(features)
        if config.use_rf:
            if rf_powers is None:
                raise ValueError("RF powers required by this configuration")
            powers = np.asarray(rf_powers, dtype=np.float64)
            if powers.ndim != 2:
                raise ValueError("rf_powers must have shape (batch, L)")
            parts.append(powers[:, :, None])
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=2)

    # -- forward / backward -----------------------------------------------------------
    def predict(
        self,
        image_features: Optional[np.ndarray],
        rf_powers: Optional[np.ndarray],
    ) -> np.ndarray:
        """Forward pass returning ``(batch,)`` normalized power predictions."""
        inputs = self.assemble_input(image_features, rf_powers)
        outputs = self.rnn.forward(inputs)
        return outputs[:, 0]

    def compute_loss_and_gradients(
        self,
        image_features: Optional[np.ndarray],
        rf_powers: Optional[np.ndarray],
        targets: np.ndarray,
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Forward + backward pass for one minibatch.

        Returns:
            ``(loss value, cut-layer gradient)`` where the cut-layer gradient
            has shape ``(batch, L, F)`` and is ``None`` for the RF-only
            baseline (no image branch to update).

        Raises:
            FloatingPointError: the loss is not finite (a diverged model or
                a non-finite input); nothing is backpropagated.
        """
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        inputs = self.assemble_input(image_features, rf_powers)
        outputs = self.rnn.forward(inputs)
        loss_value = self.loss.forward(outputs, targets)
        if not np.isfinite(loss_value):
            raise FloatingPointError(f"non-finite BS loss {loss_value!r}")
        grad_outputs = self.loss.backward()
        grad_inputs = self.rnn.backward(grad_outputs)

        if not self.model_config.use_image:
            return loss_value, None
        cut_gradient = grad_inputs[:, :, : self._image_feature_size]
        return loss_value, cut_gradient

    def check_gradients(self) -> None:
        """Clip the accumulated gradients and check their global norm.

        The first half of a BS update: the training step runs it before
        either half's optimizer moves, then :meth:`apply_update` takes the
        step.

        Raises:
            FloatingPointError: the global gradient norm (before clipping) is
                not finite; neither the weights nor the optimizer state move.
        """
        optimizer = self._require_optimizer()
        if self._gradient_clip > 0:
            norm = optimizer.clip_gradients(self._gradient_clip)
        else:
            norm = optimizer.gradient_norm()
        if not np.isfinite(norm):
            raise FloatingPointError(f"non-finite BS gradient norm {norm!r}")

    def apply_update(self) -> None:
        """Apply one optimizer step to gradients that passed
        :meth:`check_gradients`, and clear them."""
        optimizer = self._require_optimizer()
        optimizer.step()
        optimizer.zero_grad()

    def _require_optimizer(self):
        if self.optimizer is None:
            raise RuntimeError("this BSServer was created without an optimizer")
        return self.optimizer

    # -- (de)serialization ----------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Complete restorable server state: RNN weights and optimizer state."""
        state: Dict[str, Dict[str, np.ndarray]] = {"model": self.rnn.state_dict()}
        if self.optimizer is not None:
            state["optimizer"] = self.optimizer.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.rnn.load_state_dict(state["model"])
        if self.optimizer is not None:
            self.optimizer.load_state_dict(state["optimizer"])
