"""Core package: the multimodal split-learning framework of the paper.

The trainer is not re-exported here: it runs on the fleet engine
(:mod:`repro.fleet`), whose modules import this package's submodules.
Import :class:`~repro.split.trainer.SplitTrainer` from
:mod:`repro.split.trainer`.
"""
from repro.split.bs import BSServer
from repro.split.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.split.codecs import (
    CODEC_NAMES,
    IdentityCodec,
    PayloadCodec,
    TopKCodec,
    UniformQuantizerCodec,
    codec_from_name,
)
from repro.split.config import (
    PAPER_MAX_EPOCHS,
    PAPER_TARGET_RMSE_DB,
    PAPER_TOTAL_SGD_STEPS,
    ExperimentConfig,
    ModelConfig,
    TrainingConfig,
)
from repro.split.models import build_bs_rnn, build_ue_cnn
from repro.split.normalization import PowerNormalizer
from repro.split.protocol import SplitTrainingProtocol, StepResult
from repro.split.ue import UEClient

__all__ = [
    "BSServer",
    "CHECKPOINT_VERSION",
    "CODEC_NAMES",
    "Checkpoint",
    "IdentityCodec",
    "PayloadCodec",
    "TopKCodec",
    "UniformQuantizerCodec",
    "ExperimentConfig",
    "ModelConfig",
    "PAPER_MAX_EPOCHS",
    "PAPER_TARGET_RMSE_DB",
    "PAPER_TOTAL_SGD_STEPS",
    "PowerNormalizer",
    "SplitTrainingProtocol",
    "StepResult",
    "TrainingConfig",
    "UEClient",
    "build_bs_rnn",
    "build_ue_cnn",
    "codec_from_name",
]
