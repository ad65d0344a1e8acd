"""High-level predictor API.

These classes wrap the split-learning machinery behind a simple
``fit`` / ``predict`` / ``evaluate`` interface, one per scheme compared in the
paper:

* :class:`MultimodalSplitPredictor` — the proposed Img+RF split model,
* :class:`ImageOnlyPredictor` — the image-only baseline,
* :class:`RFOnlyPredictor` — the RF-only baseline.

Example:
    >>> from repro.dataset import generate_small_dataset, build_sequences, temporal_split
    >>> from repro.split import ModelConfig, TrainingConfig
    >>> from repro.split.predictors import MultimodalSplitPredictor
    >>> dataset = generate_small_dataset(num_samples=300, image_size=16)
    >>> split = temporal_split(build_sequences(dataset))
    >>> predictor = MultimodalSplitPredictor(
    ...     ModelConfig(image_height=16, image_width=16,
    ...                 pooling_height=16, pooling_width=16),
    ...     TrainingConfig(max_epochs=3),
    ... )
    >>> history = predictor.fit(split.train, split.validation)
    >>> rmse_db = predictor.evaluate(split.validation)
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.channel.params import PAPER_CHANNEL_PARAMS, WirelessChannelParams
from repro.dataset.sequences import SequenceDataset
from repro.fleet.trainer import FleetHistory
from repro.split.config import ExperimentConfig, ModelConfig, TrainingConfig
from repro.split.trainer import SplitTrainer


class BasePredictor:
    """Shared fit/predict/evaluate plumbing for all schemes."""

    def __init__(
        self,
        model_config: ModelConfig,
        training_config: Optional[TrainingConfig] = None,
        channel_params: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
    ):
        self.config = ExperimentConfig(
            model=model_config,
            training=training_config or TrainingConfig(),
            channel=channel_params,
        )
        self.trainer: Optional[SplitTrainer] = None
        self.history: Optional[FleetHistory] = None

    @property
    def scheme(self) -> str:
        """Human-readable scheme label."""
        return self.config.model.describe()

    def fit(
        self,
        train: SequenceDataset,
        validation: SequenceDataset,
        max_rounds: Optional[int] = None,
    ) -> FleetHistory:
        """Train the predictor and return the learning-curve history."""
        self.trainer = SplitTrainer(self.config)
        self.history = self.trainer.fit(train, validation, max_rounds=max_rounds)
        return self.history

    def predict(self, sequences: SequenceDataset) -> np.ndarray:
        """Predict the future received power (dBm) for every window."""
        if self.trainer is None:
            raise RuntimeError("fit() must be called before predict()")
        return self.trainer.predict_dbm(sequences)

    def evaluate(self, sequences: SequenceDataset) -> float:
        """RMSE (dB) of the predictions against the ground truth."""
        if self.trainer is None:
            raise RuntimeError("fit() must be called before evaluate()")
        return self.trainer.evaluate(sequences)


class MultimodalSplitPredictor(BasePredictor):
    """The proposed Img+RF multimodal split-learning predictor."""

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        channel_params: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
    ):
        model_config = model_config or ModelConfig()
        model_config = replace(model_config, use_image=True, use_rf=True)
        super().__init__(model_config, training_config, channel_params)


class ImageOnlyPredictor(BasePredictor):
    """Baseline using only the depth-image branch."""

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        channel_params: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
    ):
        model_config = model_config or ModelConfig()
        model_config = replace(model_config, use_image=True, use_rf=False)
        super().__init__(model_config, training_config, channel_params)


class RFOnlyPredictor(BasePredictor):
    """Baseline using only the past RF received powers (no communication)."""

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        training_config: Optional[TrainingConfig] = None,
        channel_params: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
    ):
        model_config = model_config or ModelConfig()
        model_config = replace(model_config, use_image=False, use_rf=True)
        super().__init__(model_config, training_config, channel_params)
