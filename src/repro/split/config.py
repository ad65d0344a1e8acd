"""Configuration objects for the multimodal split-learning framework."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.channel.params import PAPER_CHANNEL_PARAMS, WirelessChannelParams
from repro.split.codecs import CODEC_NAMES, DEFAULT_TOPK_FRACTION
from repro.utils.validation import integer, integer_fields

#: RMSE (dB) at which the paper stops training.
PAPER_TARGET_RMSE_DB = 2.7

#: Maximum number of epochs in the paper's training protocol.
PAPER_MAX_EPOCHS = 100

#: Total number of SGD steps quoted by the paper for the full run.
PAPER_TOTAL_SGD_STEPS = 156


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the split neural network.

    Attributes:
        image_height / image_width: raw depth-image size ``N_H x N_W``.
        pooling_height / pooling_width: average-pooling region ``w_H x w_W``
            applied to the CNN output before transmission.  ``40 x 40`` on a
            40x40 image is the paper's "one-pixel" configuration.
        cnn_channels: hidden channel counts of the UE-side CNN; the CNN always
            maps back to a single-channel output image of the input size.
        cnn_kernel_size: convolution kernel size (odd, 'same' padding).
        rnn_type: ``"lstm"``, ``"gru"`` or ``"simple"`` (any case; stored
            lower-case, as is ``codec``).
        rnn_hidden_size: hidden units of the BS-side recurrent layer.
        head_hidden_size: hidden units of the dense head after the RNN
            (0 disables the extra layer).
        sequence_length: RNN input sequence length ``L``.
        use_image: include the image branch (False = RF-only baseline).
        use_rf: include the RF power input (False = image-only baseline).
        bits_per_value: bit depth of transmitted activations/gradients.
        codec: payload codec applied to the cut-layer tensors before
            transmission (one of :data:`repro.split.codecs.CODEC_NAMES`;
            ``"identity"`` reproduces the paper's uncompressed payloads).
        codec_topk_fraction: fraction of cut-tensor elements kept by the
            ``"topk"`` codec (ignored by the other codecs).
    """

    image_height: int = 40
    image_width: int = 40
    pooling_height: int = 40
    pooling_width: int = 40
    cnn_channels: Tuple[int, ...] = (8,)
    cnn_kernel_size: int = 3
    rnn_type: str = "lstm"
    rnn_hidden_size: int = 32
    head_hidden_size: int = 16
    sequence_length: int = 4
    use_image: bool = True
    use_rf: bool = True
    bits_per_value: int = 32
    codec: str = "identity"
    codec_topk_fraction: float = DEFAULT_TOPK_FRACTION

    def __post_init__(self):
        integer_fields(self)
        object.__setattr__(
            self,
            "cnn_channels",
            tuple(integer("cnn_channels", value) for value in self.cnn_channels),
        )
        object.__setattr__(self, "rnn_type", self.rnn_type.lower())
        object.__setattr__(self, "codec", self.codec.lower())
        if self.image_height <= 0 or self.image_width <= 0:
            raise ValueError("image dimensions must be positive")
        if self.pooling_height <= 0 or self.pooling_width <= 0:
            raise ValueError("pooling dimensions must be positive")
        if any(channels <= 0 for channels in self.cnn_channels):
            raise ValueError("cnn_channels must all be positive")
        if self.image_height % self.pooling_height != 0:
            raise ValueError("image_height must be divisible by pooling_height")
        if self.image_width % self.pooling_width != 0:
            raise ValueError("image_width must be divisible by pooling_width")
        if self.cnn_kernel_size % 2 == 0 or self.cnn_kernel_size <= 0:
            raise ValueError("cnn_kernel_size must be a positive odd number")
        if self.rnn_type not in ("lstm", "gru", "simple"):
            raise ValueError("rnn_type must be one of 'lstm', 'gru', 'simple'")
        if self.rnn_hidden_size <= 0:
            raise ValueError("rnn_hidden_size must be positive")
        if self.head_hidden_size < 0:
            raise ValueError("head_hidden_size must be non-negative")
        if self.sequence_length < 1:
            raise ValueError("sequence_length must be at least 1")
        if not self.use_image and not self.use_rf:
            raise ValueError("at least one of use_image / use_rf must be True")
        if self.bits_per_value <= 0:
            raise ValueError("bits_per_value must be positive")
        if self.codec not in CODEC_NAMES:
            raise ValueError(
                f"codec must be one of {CODEC_NAMES}, got {self.codec!r}"
            )
        if not 0.0 < self.codec_topk_fraction <= 1.0:
            raise ValueError("codec_topk_fraction must be in (0, 1]")

    @property
    def feature_map_height(self) -> int:
        """Height of the pooled CNN output image."""
        return self.image_height // self.pooling_height

    @property
    def feature_map_width(self) -> int:
        """Width of the pooled CNN output image."""
        return self.image_width // self.pooling_width

    @property
    def image_feature_size(self) -> int:
        """Number of image feature values fed to the RNN per time step."""
        if not self.use_image:
            return 0
        return self.feature_map_height * self.feature_map_width

    @property
    def rnn_input_size(self) -> int:
        """Per-time-step RNN input dimensionality."""
        return self.image_feature_size + (1 if self.use_rf else 0)

    @property
    def is_one_pixel(self) -> bool:
        """Whether the pooled output is the paper's one-pixel configuration."""
        return self.feature_map_height == 1 and self.feature_map_width == 1

    def with_pooling(self, pooling: int | Tuple[int, int]) -> "ModelConfig":
        """Copy of this configuration with a different pooling region."""
        if isinstance(pooling, (tuple, list)):
            height, width = int(pooling[0]), int(pooling[1])
        else:
            height = width = int(pooling)
        return replace(self, pooling_height=height, pooling_width=width)

    def describe(self) -> str:
        """Short human-readable scheme name (as used in the paper's figures)."""
        if not self.use_image:
            return "RF-only"
        pooling = f"{self.pooling_height}x{self.pooling_width}"
        if self.is_one_pixel:
            pooling += " (1-pixel)"
        base = "Img+RF" if self.use_rf else "Img-only"
        scheme = f"{base}, pooling {pooling}"
        # The identity codec keeps the pre-codec labels (and therefore the
        # checkpoint scheme-match guard) unchanged.
        if self.codec != "identity":
            scheme += f", codec {self.codec}"
        return scheme


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization and wall-clock parameters of a split-learning run.

    Attributes:
        batch_size: minibatch size ``B`` (also enters the uplink payload).
        learning_rate / beta1 / beta2: Adam hyper-parameters (paper values).
        max_epochs: training stops after this many epochs at the latest.
        steps_per_epoch: SGD steps per epoch; the paper's 100-epoch budget of
            156 total steps corresponds to 1-2 steps per epoch.
        target_rmse_db: validation RMSE threshold that stops training early.
        gradient_clip_norm: global-norm gradient clipping (0 disables).
        ue_compute_time_s / bs_compute_time_s: simulated computation time per
            SGD step on each side; together with the simulated transmission
            time they form the elapsed-training-time axis of Fig. 3a.
        max_retransmissions: per-payload retransmission cap (``None`` = retry
            until decoded, the paper's behaviour).
        eval_batch_size: inference minibatch size used for validation and
            prediction.  It bounds the UE CNN batches at ``eval_batch_size *
            L`` distinct frames (and so the cached im2col buffers) and sets
            the windows per codec preview and BS forward pass.  The UE
            features do not depend on it, but the chunked preview and BS
            GEMMs do, so changing it moves predictions: at the ulp level with
            the identity codec, and further with the lossy codecs, whose
            quantization range and top-k selection are per chunk (fast scale
            after 5 epochs, normalized units: up to 1e-3 for uint8, 3e-3 for
            int4, 0.16 for top-k).
        seed: RNG seed controlling weight init, batch sampling and fading.
    """

    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    max_epochs: int = PAPER_MAX_EPOCHS
    steps_per_epoch: int = 2
    target_rmse_db: float = PAPER_TARGET_RMSE_DB
    gradient_clip_norm: float = 5.0
    ue_compute_time_s: float = 0.020
    bs_compute_time_s: float = 0.010
    max_retransmissions: int | None = None
    eval_batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        integer_fields(self)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.eval_batch_size <= 0:
            raise ValueError("eval_batch_size must be positive")
        # The float checks are negated comparisons so that NaN fails them.
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if self.steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")
        if not self.target_rmse_db > 0:
            raise ValueError("target_rmse_db must be positive")
        if not self.gradient_clip_norm >= 0:
            raise ValueError("gradient_clip_norm must be non-negative")
        if not (self.ue_compute_time_s >= 0 and self.bs_compute_time_s >= 0):
            raise ValueError("compute times must be non-negative")
        if self.max_retransmissions is not None and self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative or None")

    @property
    def compute_time_per_step_s(self) -> float:
        """Total simulated computation time charged per SGD step."""
        return self.ue_compute_time_s + self.bs_compute_time_s


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: architecture, training protocol and channel."""

    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    channel: WirelessChannelParams = PAPER_CHANNEL_PARAMS

    @classmethod
    def for_scenario(
        cls,
        scenario,
        model: ModelConfig | None = None,
        training: TrainingConfig | None = None,
    ) -> "ExperimentConfig":
        """Configuration whose SL channel comes from a registered scenario.

        ``scenario`` is a name or :class:`repro.scenarios.Scenario`; the
        paper-baseline scenario yields :data:`PAPER_CHANNEL_PARAMS`.
        """
        from repro.scenarios import get_scenario

        return cls(
            model=model if model is not None else ModelConfig(),
            training=training if training is not None else TrainingConfig(),
            channel=get_scenario(scenario).channel,
        )
