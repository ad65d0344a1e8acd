"""Tests for the split-model configuration objects and model builders."""
import numpy as np
import pytest

from repro.split import (
    ExperimentConfig,
    ModelConfig,
    TrainingConfig,
    build_bs_rnn,
    build_pooling_compressor,
    build_ue_cnn,
    paper_model_configs,
)


def test_default_model_config_is_paper_one_pixel():
    config = ModelConfig()
    assert config.image_height == 40 and config.image_width == 40
    assert config.pooling_height == 40 and config.pooling_width == 40
    assert config.is_one_pixel
    assert config.image_feature_size == 1
    assert config.rnn_input_size == 2  # one pixel + RF power
    assert config.sequence_length == 4


def test_model_config_pooling_arithmetic():
    config = ModelConfig(pooling_height=4, pooling_width=4)
    assert config.feature_map_height == 10
    assert config.feature_map_width == 10
    assert config.image_feature_size == 100
    assert not config.is_one_pixel


def test_model_config_modality_flags():
    rf_only = ModelConfig(use_image=False)
    assert rf_only.image_feature_size == 0
    assert rf_only.rnn_input_size == 1
    img_only = ModelConfig(use_rf=False)
    assert img_only.rnn_input_size == 1
    with pytest.raises(ValueError):
        ModelConfig(use_image=False, use_rf=False)


def test_model_config_with_pooling_copy():
    base = ModelConfig()
    pooled = base.with_pooling(4)
    assert pooled.pooling_height == 4 and pooled.pooling_width == 4
    assert base.pooling_height == 40  # original unchanged
    rectangular = base.with_pooling((8, 10))
    assert rectangular.pooling_height == 8 and rectangular.pooling_width == 10


def test_model_config_describe():
    assert "1-pixel" in ModelConfig().describe()
    assert ModelConfig(use_image=False).describe() == "RF-only"
    assert "Img-only" in ModelConfig(use_rf=False).describe()
    assert "4x4" in ModelConfig(pooling_height=4, pooling_width=4).describe()


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(pooling_height=3)  # not a divisor of 40
    with pytest.raises(ValueError):
        ModelConfig(cnn_kernel_size=4)
    with pytest.raises(ValueError):
        ModelConfig(rnn_type="transformer")
    with pytest.raises(ValueError):
        ModelConfig(sequence_length=0)


def test_training_config_paper_defaults():
    config = TrainingConfig()
    assert config.learning_rate == pytest.approx(0.001)
    assert config.beta1 == pytest.approx(0.9)
    assert config.beta2 == pytest.approx(0.999)
    assert config.max_epochs == 100
    assert config.target_rmse_db == pytest.approx(2.7)
    assert config.compute_time_per_step_s == pytest.approx(
        config.ue_compute_time_s + config.bs_compute_time_s
    )


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainingConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(max_retransmissions=-2)
    with pytest.raises(ValueError):
        TrainingConfig(eval_batch_size=0)


def test_experiment_config_describe():
    assert "1-pixel" in ExperimentConfig().describe()


def test_paper_model_configs_cover_five_schemes():
    configs = paper_model_configs()
    assert len(configs) == 5
    assert configs["rf-only"].use_image is False
    assert configs["img-only-1pixel"].use_rf is False
    assert configs["img+rf-1pixel"].is_one_pixel
    assert configs["img+rf-4x4"].pooling_height == 4


# -- model builders ----------------------------------------------------------------


@pytest.fixture()
def small_config():
    return ModelConfig(
        image_height=12,
        image_width=12,
        pooling_height=12,
        pooling_width=12,
        cnn_channels=(3,),
        rnn_hidden_size=6,
        head_hidden_size=4,
    )


def test_ue_cnn_preserves_spatial_size(small_config):
    cnn = build_ue_cnn(small_config, seed=0)
    output = cnn.forward(np.random.default_rng(0).random((2, 1, 12, 12)))
    assert output.shape == (2, 1, 12, 12)
    assert output.min() >= 0.0 and output.max() <= 1.0  # sigmoid output image


@pytest.mark.parametrize("channels", [(3,), (3, 2), ()])
def test_ue_cnn_skips_only_the_first_input_gradient(small_config, channels):
    from dataclasses import replace

    from repro.nn.layers.conv import Conv2D

    cnn = build_ue_cnn(replace(small_config, cnn_channels=channels), seed=0)
    convs = [layer for layer in cnn.layers if isinstance(layer, Conv2D)]
    assert [conv.needs_input_grad for conv in convs] == [False] + [True] * len(channels)
    output = cnn.forward(np.random.default_rng(0).random((2, 1, 12, 12)))
    assert cnn.backward(np.ones_like(output)) is None
    assert all(np.any(conv.weight.grad != 0) for conv in convs)


def test_ue_cnn_requires_image_branch():
    with pytest.raises(ValueError):
        build_ue_cnn(ModelConfig(use_image=False))


def test_pooling_compressor_output_size(small_config):
    compressor = build_pooling_compressor(small_config)
    pooled = compressor.forward(np.random.default_rng(0).random((3, 1, 12, 12)))
    assert pooled.shape == (3, 1)
    finer = build_pooling_compressor(small_config.with_pooling(4))
    assert finer.forward(np.random.default_rng(0).random((3, 1, 12, 12))).shape == (3, 9)


def test_bs_rnn_output_shape(small_config):
    rnn = build_bs_rnn(small_config, seed=0)
    inputs = np.random.default_rng(0).random((5, 4, small_config.rnn_input_size))
    output = rnn.forward(inputs)
    assert output.shape == (5, 1)


@pytest.mark.parametrize("rnn_type", ["lstm", "gru", "simple"])
def test_bs_rnn_backends(small_config, rnn_type):
    from dataclasses import replace

    config = replace(small_config, rnn_type=rnn_type)
    rnn = build_bs_rnn(config, seed=0)
    inputs = np.random.default_rng(1).random((3, 4, config.rnn_input_size))
    assert rnn.forward(inputs).shape == (3, 1)


def test_bs_rnn_without_head_hidden(small_config):
    from dataclasses import replace

    config = replace(small_config, head_hidden_size=0)
    rnn = build_bs_rnn(config, seed=0)
    inputs = np.random.default_rng(1).random((3, 4, config.rnn_input_size))
    assert rnn.forward(inputs).shape == (3, 1)


def test_builders_deterministic_per_seed(small_config):
    a = build_ue_cnn(small_config, seed=5)
    b = build_ue_cnn(small_config, seed=5)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.allclose(pa.value, pb.value)
