"""Tests for the split-model configuration objects and model builders."""
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentScale
from repro.experiments.model_cache import trained_model_fingerprint
from repro.fleet.config import FleetConfig
from repro.split import (
    ExperimentConfig,
    ModelConfig,
    TrainingConfig,
    build_bs_rnn,
    build_ue_cnn,
)
from repro.split.ue import UEClient


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


def test_model_config_rejects_zero_pooling():
    with pytest.raises(ValueError, match="pooling dimensions must be positive"):
        ModelConfig(pooling_height=0)


def test_model_config_rejects_negative_pooling():
    with pytest.raises(ValueError, match="pooling dimensions must be positive"):
        ModelConfig(pooling_height=-40, pooling_width=-40)


def test_model_config_rejects_zero_cnn_channels():
    with pytest.raises(ValueError, match="cnn_channels must all be positive"):
        ModelConfig(cnn_channels=(0,))


@pytest.mark.parametrize(
    "field",
    [
        {"pooling_height": 4.0, "pooling_width": 4},
        {"cnn_kernel_size": 3.0},
        {"sequence_length": 2.0},
        {"rnn_hidden_size": True},
        {"cnn_channels": (8.0,)},
    ],
    ids=[
        "float-pooling", "float-kernel", "float-length", "bool-size", "float-channels"
    ],
)
def test_model_config_rejects_non_integer_sizes(field):
    with pytest.raises(TypeError, match="must be an integer"):
        ModelConfig(**field)


def test_model_config_stores_channels_as_a_hashable_tuple():
    config = ModelConfig(cnn_channels=[8])
    assert config.cnn_channels == (8,)
    assert hash(config) == hash(ModelConfig(cnn_channels=(8,)))


def test_model_config_spellings_of_one_model_share_a_cache_key():
    """Upper-case names and numpy integers describe the same model as the
    canonical config: equal, stored as ``str``/``int``, one cache key."""
    scale = ExperimentScale.smoke()
    canonical = ModelConfig(pooling_height=4, pooling_width=4)
    spelled = ModelConfig(
        pooling_height=np.int64(4), pooling_width=np.int64(4),
        rnn_type="LSTM", codec="Identity",
    )
    assert spelled == canonical
    assert type(spelled.pooling_height) is int
    assert spelled.describe() == canonical.describe()
    assert trained_model_fingerprint(
        scale, ExperimentConfig(model=spelled)
    ) == trained_model_fingerprint(scale, ExperimentConfig(model=canonical))


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
    assert "1-pixel" in ExperimentConfig().model.describe()


@pytest.mark.parametrize(
    "config, arguments, error",
    [
        (TrainingConfig, {"batch_size": 32.0}, TypeError),
        (TrainingConfig, {"batch_size": True}, TypeError),
        (TrainingConfig, {"max_epochs": 2.5}, TypeError),
        (TrainingConfig, {"seed": 1.5}, TypeError),
        (TrainingConfig, {"max_retransmissions": 3.0}, TypeError),
        (TrainingConfig, {"learning_rate": math.nan}, ValueError),
        (TrainingConfig, {"target_rmse_db": math.nan}, ValueError),
        (TrainingConfig, {"gradient_clip_norm": math.nan}, ValueError),
        (TrainingConfig, {"ue_compute_time_s": math.nan}, ValueError),
        (FleetConfig, {"num_ues": 2.0}, TypeError),
        (FleetConfig, {"num_ues": True}, TypeError),
        (FleetConfig, {"max_rounds": 3.0}, TypeError),
    ],
    ids=[
        "float-batch", "bool-batch", "fractional-epochs", "fractional-seed",
        "float-retransmissions", "nan-learning-rate", "nan-target", "nan-clip",
        "nan-compute-time", "float-ues", "bool-ues", "float-rounds",
    ],
)
def test_run_configs_reject_non_integers_and_nan(config, arguments, error):
    with pytest.raises(error):
        config(**arguments)


def test_training_config_spellings_of_one_run_share_a_cache_key():
    """A numpy integer describes the same run as the ``int`` it equals."""
    scale = ExperimentScale.smoke()
    canonical = TrainingConfig(batch_size=32, max_retransmissions=3, seed=7)
    spelled = TrainingConfig(
        batch_size=np.int64(32), max_retransmissions=np.int32(3), seed=np.int64(7)
    )
    assert type(spelled.batch_size) is int and type(spelled.seed) is int
    assert trained_model_fingerprint(
        scale, ExperimentConfig(training=spelled)
    ) == trained_model_fingerprint(scale, ExperimentConfig(training=canonical))
    fleet = FleetConfig(num_ues=np.int64(3), max_rounds=np.int64(2))
    assert asdict(fleet) == asdict(FleetConfig(num_ues=3, max_rounds=2))
    assert type(fleet.num_ues) is int


#: Constructor arguments of every numeric kind a caller might pass.
NUMBERS = st.one_of(
    st.integers(-2, 70),
    st.integers(-2, 70).map(np.int64),
    st.integers(-2, 70).map(float),
    st.floats(-2.0, 70.0),
    st.just(math.nan),
    st.booleans(),
)


def numeric_arguments(config, optional=()):
    """Any subset of ``config``'s numeric fields, each drawn from NUMBERS
    (and ``None`` for the ``optional`` ones)."""
    draws = {
        spec.name: st.one_of(NUMBERS, st.none()) if spec.name in optional else NUMBERS
        for spec in fields(config)
        if spec.type in ("int", "float", "int | None", "Optional[int]")
    }
    return st.fixed_dictionaries({}, optional=draws)


def assert_one_spelling(config, arguments):
    """Either the constructor rejects ``arguments`` or its integer fields
    are plain ``int``s and it equals, hashes and serializes as the
    all-``int`` spelling of the same arguments."""
    try:
        built = config(**arguments)
    except (TypeError, ValueError):
        return
    integers = [
        spec.name
        for spec in fields(config)
        if spec.type in ("int", "int | None", "Optional[int]")
    ]
    for name in integers:
        assert getattr(built, name) is None or type(getattr(built, name)) is int
    canonical = config(**{
        name: int(value) if name in integers and value is not None else value
        for name, value in arguments.items()
    })
    assert built == canonical
    assert hash(built) == hash(canonical)
    assert json.dumps(asdict(built), sort_keys=True, default=str) == json.dumps(
        asdict(canonical), sort_keys=True, default=str
    )


@given(numeric_arguments(TrainingConfig, optional=("max_retransmissions",)))
@settings(max_examples=200, deadline=None)
def test_training_config_has_one_spelling_per_run(arguments):
    assert_one_spelling(TrainingConfig, arguments)


@given(numeric_arguments(FleetConfig, optional=("steps_per_turn", "max_rounds", "seed")))
@settings(max_examples=200, deadline=None)
def test_fleet_config_has_one_spelling_per_run(arguments):
    assert_one_spelling(FleetConfig, arguments)


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
    client = UEClient(small_config, seed=0)
    output = client.output_images(np.random.default_rng(0).random((2, 12, 12)))
    assert output.shape == (2, 12, 12)
    assert output.min() >= 0.0 and output.max() <= 1.0  # sigmoid output image


@pytest.mark.parametrize("channels", [(3,), (3, 2), ()])
def test_ue_cnn_skips_only_the_first_input_gradient(small_config, channels):
    from dataclasses import replace

    client = UEClient(
        replace(small_config, cnn_channels=channels), TrainingConfig(), seed=0
    )
    convs = [step for step in client.plan.steps if step[0] == "conv"]
    assert [step[3] for step in convs] == [False] + [True] * len(channels)
    features = client.forward(np.random.default_rng(0).random((2, 1, 12, 12)))
    client.backward(np.ones_like(features))
    assert "grad_padded/0" not in client._buffers  # no input-gradient scratch
    assert all(np.any(param.grad != 0) for param in client.cnn.parameters())


def test_ue_cnn_requires_image_branch():
    with pytest.raises(ValueError):
        build_ue_cnn(ModelConfig(use_image=False))


def test_pooling_compressor_output_size(small_config):
    images = np.random.default_rng(0).random((3, 1, 12, 12))
    assert UEClient(small_config, seed=0).forward(images).shape == (3, 1, 1)
    finer = UEClient(small_config.with_pooling(4), seed=0)
    assert finer.forward(images).shape == (3, 1, 9)
    assert finer.compressed_images(images[:, 0]).shape == (3, 3, 3)


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
