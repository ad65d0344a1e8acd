"""Payload-size accounting for the split-learning link.

The uplink feed-forward payload carries the pooled CNN output images for one
minibatch of sequences; the paper gives its size as

    B_UL = N_H * N_W * B * R * L / (w_H * w_W)

where ``N_H x N_W`` is the raw image size, ``B`` the minibatch size, ``R`` the
bit depth per value, ``L`` the sequence length and ``w_H x w_W`` the pooling
region.  The downlink backward payload carries the cut-layer gradients, which
have exactly the same dimensionality as the forward activations.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PayloadModel:
    """Cut-layer payload sizes for a given architecture configuration.

    Attributes:
        image_height / image_width: raw image size ``N_H`` and ``N_W``.
        pooling_height / pooling_width: pooling region ``w_H`` and ``w_W``.
        sequence_length: RNN input sequence length ``L``.
        bits_per_value: bit depth ``R`` of each transmitted activation value.
    """

    image_height: int = 40
    image_width: int = 40
    pooling_height: int = 1
    pooling_width: int = 1
    sequence_length: int = 4
    bits_per_value: int = 32

    @classmethod
    def from_model_config(cls, model) -> "PayloadModel":
        """Payload sizes for a :class:`~repro.split.config.ModelConfig`.

        The six shared fields are copied here — the single place they are
        listed — so the protocol cannot drift out of sync with the model
        architecture.  ``model`` is duck-typed (the channel layer does not
        import the split layer).
        """
        return cls(
            image_height=model.image_height,
            image_width=model.image_width,
            pooling_height=model.pooling_height,
            pooling_width=model.pooling_width,
            sequence_length=model.sequence_length,
            bits_per_value=model.bits_per_value,
        )

    def __post_init__(self):
        for name in (
            "image_height",
            "image_width",
            "pooling_height",
            "pooling_width",
            "sequence_length",
            "bits_per_value",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.image_height % self.pooling_height != 0:
            raise ValueError("image_height must be divisible by pooling_height")
        if self.image_width % self.pooling_width != 0:
            raise ValueError("image_width must be divisible by pooling_width")

    @property
    def feature_map_height(self) -> int:
        """Pooled feature map height ``N_H / w_H``."""
        return self.image_height // self.pooling_height

    @property
    def feature_map_width(self) -> int:
        """Pooled feature map width ``N_W / w_W``."""
        return self.image_width // self.pooling_width

    @property
    def values_per_image(self) -> int:
        """Number of activation values transmitted per image."""
        return self.feature_map_height * self.feature_map_width

    def uplink_payload_bits(self, batch_size: int) -> float:
        """Feed-forward payload ``B_UL`` in bits for one minibatch."""
        if batch_size <= 0:
            raise ValueError("batch_size must be strictly positive")
        return float(
            self.values_per_image
            * batch_size
            * self.bits_per_value
            * self.sequence_length
        )
