"""Tests for the high-level predictor API."""
import numpy as np
import pytest

from repro.split.predictors import (
    ImageOnlyPredictor,
    MultimodalSplitPredictor,
    RFOnlyPredictor,
)


def test_predictor_modality_flags(tiny_model_config, tiny_training_config):
    multimodal = MultimodalSplitPredictor(tiny_model_config, tiny_training_config)
    assert multimodal.config.model.use_image and multimodal.config.model.use_rf
    image_only = ImageOnlyPredictor(tiny_model_config, tiny_training_config)
    assert image_only.config.model.use_image and not image_only.config.model.use_rf
    rf_only = RFOnlyPredictor(tiny_model_config, tiny_training_config)
    assert not rf_only.config.model.use_image and rf_only.config.model.use_rf


def test_predictor_scheme_labels(tiny_model_config, tiny_training_config):
    assert "Img+RF" in MultimodalSplitPredictor(tiny_model_config, tiny_training_config).scheme
    assert RFOnlyPredictor(tiny_model_config, tiny_training_config).scheme == "RF-only"


def test_predictor_fit_predict_evaluate(tiny_model_config, tiny_training_config, small_split):
    predictor = MultimodalSplitPredictor(tiny_model_config, tiny_training_config)
    history = predictor.fit(small_split.train, small_split.validation)
    assert history is predictor.history
    predictions = predictor.predict(small_split.validation)
    assert predictions.shape == (len(small_split.validation),)
    rmse = predictor.evaluate(small_split.validation)
    assert 0.0 < rmse < 30.0


def test_rf_only_predictor_trains_fast_and_reasonably(
    tiny_model_config, small_split
):
    from repro.split import TrainingConfig

    predictor = RFOnlyPredictor(
        tiny_model_config, TrainingConfig(batch_size=16, max_epochs=10, steps_per_epoch=4, seed=2)
    )
    history = predictor.fit(small_split.train, small_split.validation)
    # No communication: simulated time is only compute time.
    expected = sum(r.steps for r in history.records) * history.records[0].elapsed_s / (
        history.records[0].steps * len(history.records) / len(history.records)
    )
    assert history.total_elapsed_s <= 10 * 4 * 0.03 + 1e-6
    assert predictor.evaluate(small_split.validation) < 15.0
    del expected


def test_predict_before_fit_raises(tiny_model_config, tiny_training_config, small_split):
    predictor = MultimodalSplitPredictor(tiny_model_config, tiny_training_config)
    with pytest.raises(RuntimeError):
        predictor.predict(small_split.validation)
    with pytest.raises(RuntimeError):
        predictor.evaluate(small_split.validation)


def test_fit_is_reproducible_with_same_seed(tiny_model_config, tiny_training_config, small_split):
    predictor_a = MultimodalSplitPredictor(tiny_model_config, tiny_training_config)
    predictor_b = MultimodalSplitPredictor(tiny_model_config, tiny_training_config)
    history_a = predictor_a.fit(small_split.train, small_split.validation)
    history_b = predictor_b.fit(small_split.train, small_split.validation)
    assert history_a.final_rmse_db == pytest.approx(history_b.final_rmse_db)
    assert np.allclose(
        predictor_a.predict(small_split.validation),
        predictor_b.predict(small_split.validation),
    )
