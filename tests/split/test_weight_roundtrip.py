"""Weight get/set and state-tree save/load round-trips for the two model halves.

The fleet hand-off and parallel averaging move UE weights between clients, so
a restored client must be *bit-identical* in its forward pass, not merely
close.
"""
import numpy as np
import pytest

from repro.nn.serialization import load_state_tree, save_state_tree
from repro.split import ModelConfig
from repro.split.bs import BSServer
from repro.split.ue import UEClient


@pytest.fixture()
def image_batch(rng, tiny_model_config):
    return rng.random(
        (3, 4, tiny_model_config.image_height, tiny_model_config.image_width)
    )


def test_ue_get_set_weights_bit_identical_forward(
    tiny_model_config, tiny_training_config, image_batch
):
    source = UEClient(tiny_model_config, tiny_training_config, seed=1)
    target = UEClient(tiny_model_config, tiny_training_config, seed=2)
    assert not np.array_equal(
        source.forward(image_batch), target.forward(image_batch)
    )
    target.set_weights(source.get_weights())
    assert np.array_equal(source.forward(image_batch), target.forward(image_batch))


def test_ue_save_load_weights_bit_identical_forward(
    tmp_path, tiny_model_config, tiny_training_config, image_batch
):
    source = UEClient(tiny_model_config, tiny_training_config, seed=1)
    reference = source.forward(image_batch)
    path = tmp_path / "ue_weights.npz"
    save_state_tree(path, source.state_dict())

    restored = UEClient(tiny_model_config, tiny_training_config, seed=99)
    restored.load_state_dict(load_state_tree(path))
    assert np.array_equal(restored.forward(image_batch), reference)


def test_bs_get_set_weights_bit_identical_predict(
    rng, tiny_model_config, tiny_training_config
):
    features = rng.random((5, 4, tiny_model_config.image_feature_size))
    powers = rng.random((5, 4))
    source = BSServer(tiny_model_config, tiny_training_config, seed=3)
    target = BSServer(tiny_model_config, tiny_training_config, seed=4)
    target.set_weights(source.get_weights())
    assert np.array_equal(
        source.predict(features, powers), target.predict(features, powers)
    )


def test_bs_save_load_weights_round_trip(
    tmp_path, rng, tiny_model_config, tiny_training_config
):
    features = rng.random((5, 4, tiny_model_config.image_feature_size))
    powers = rng.random((5, 4))
    source = BSServer(tiny_model_config, tiny_training_config, seed=3)
    path = tmp_path / "bs_weights"
    save_state_tree(path, source.state_dict())
    restored = BSServer(tiny_model_config, tiny_training_config, seed=7)
    restored.load_state_dict(load_state_tree(path))
    assert np.array_equal(
        source.predict(features, powers), restored.predict(features, powers)
    )


def test_get_weights_returns_copies(tiny_model_config, tiny_training_config):
    client = UEClient(tiny_model_config, tiny_training_config, seed=1)
    state = client.get_weights()
    key = next(iter(state))
    state[key] += 1.0
    assert not np.array_equal(state[key], client.get_weights()[key])


def test_set_weights_shape_mismatch_raises(tiny_training_config):
    small = ModelConfig(
        image_height=12,
        image_width=12,
        pooling_height=12,
        pooling_width=12,
        cnn_channels=(2,),
    )
    large = ModelConfig(
        image_height=12,
        image_width=12,
        pooling_height=12,
        pooling_width=12,
        cnn_channels=(3,),
    )
    client = UEClient(small, tiny_training_config, seed=1)
    donor = UEClient(large, tiny_training_config, seed=1)
    with pytest.raises(ValueError):
        client.set_weights(donor.get_weights())


def test_set_weights_preserves_optimizer_binding(
    tiny_model_config, tiny_training_config, image_batch
):
    """The optimizer keeps stepping the same Parameter objects after a load."""
    client = UEClient(tiny_model_config, tiny_training_config, seed=1)
    donor = UEClient(tiny_model_config, tiny_training_config, seed=2)
    client.set_weights(donor.get_weights())
    before = client.get_weights()
    features = client.forward(image_batch)
    client.backward(np.ones_like(features))
    client.apply_update()
    after = client.get_weights()
    assert any(
        not np.array_equal(before[key], after[key]) for key in before
    ), "optimizer update had no effect after set_weights"
