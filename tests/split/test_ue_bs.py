"""Tests for the UE client and BS server halves."""
import numpy as np
import pytest

from repro.nn.serialization import flatten_state_tree
from repro.split import BSServer, ModelConfig, TrainingConfig, UEClient


@pytest.fixture()
def config():
    return ModelConfig(
        image_height=8,
        image_width=8,
        pooling_height=8,
        pooling_width=8,
        cnn_channels=(2,),
        rnn_hidden_size=6,
        head_hidden_size=0,
    )


@pytest.fixture()
def training():
    return TrainingConfig(batch_size=4, max_epochs=1)


@pytest.fixture()
def gen():
    return np.random.default_rng(2)


def test_ue_forward_shape(config, training, gen):
    ue = UEClient(config, training, seed=0)
    features = ue.forward(gen.random((3, 4, 8, 8)))
    assert features.shape == (3, 4, 1)


def test_ue_forward_shape_finer_pooling(training, gen):
    config = ModelConfig(
        image_height=8, image_width=8, pooling_height=2, pooling_width=2,
        cnn_channels=(2,),
    )
    ue = UEClient(config, training, seed=0)
    features = ue.forward(gen.random((2, 4, 8, 8)))
    assert features.shape == (2, 4, 16)


def test_ue_rejects_wrong_image_size(config, training, gen):
    ue = UEClient(config, training, seed=0)
    with pytest.raises(ValueError):
        ue.forward(gen.random((3, 4, 10, 10)))
    with pytest.raises(ValueError):
        ue.forward(gen.random((3, 8, 8)))


def test_ue_requires_image_configuration(training):
    with pytest.raises(ValueError):
        UEClient(ModelConfig(use_image=False), training)


def test_ue_output_and_compressed_images(config, training, gen):
    ue = UEClient(config, training, seed=0)
    images = gen.random((5, 8, 8))
    output = ue.output_images(images)
    assert output.shape == (5, 8, 8)
    compressed = ue.compressed_images(images)
    assert compressed.shape == (5, 1, 1)
    assert np.allclose(compressed[:, 0, 0], output.mean(axis=(1, 2)), atol=1e-9)


def test_ue_backward_and_update_changes_parameters(config, training, gen):
    """A step of a bank of one over the client's row moves what it reads."""
    ue = UEClient(config, training, seed=0)
    before = [p.value.copy() for p in ue.cnn.parameters()]
    bank = ue.bank.member(ue.row)
    features = bank.forward(gen.random((1, 2, 4, 8, 8)))
    bank.backward_and_update([0], gen.random(features.shape))
    after = [p.value for p in ue.cnn.parameters()]
    assert any(not np.allclose(b, a) for b, a in zip(before, after))


def test_ue_backward_before_forward_raises(config, training):
    ue = UEClient(config, training, seed=0)
    with pytest.raises(RuntimeError):
        ue.backward(np.zeros((2, 4, 1)))


def test_ue_backward_shape_mismatch(config, training, gen):
    ue = UEClient(config, training, seed=0)
    ue.forward(gen.random((2, 4, 8, 8)))
    with pytest.raises(ValueError):
        ue.backward(np.zeros((3, 4, 1)))


def test_ue_without_optimizer_cannot_update(config, gen):
    ue = UEClient(config, training_config=None, seed=0)
    before = ue.bank.state_dict()
    bank = ue.bank.member(ue.row)
    features = bank.forward(gen.random((1, 1, 4, 8, 8)))
    with pytest.raises(RuntimeError, match="without training"):
        bank.backward_and_update([0], np.zeros_like(features))
    for key, value in ue.bank.state_dict().items():
        assert np.array_equal(value, before[key]), key


# -- BS server ------------------------------------------------------------------


def test_bs_assemble_input_multimodal(config, training, gen):
    bs = BSServer(config, training, seed=0)
    features = gen.random((3, 4, 1))
    powers = gen.random((3, 4))
    inputs = bs.assemble_input(features, powers)
    assert inputs.shape == (3, 4, 2)
    assert np.allclose(inputs[..., 0], features[..., 0])
    assert np.allclose(inputs[..., 1], powers)


def test_bs_assemble_input_rf_only(training, gen):
    bs = BSServer(ModelConfig(use_image=False), training, seed=0)
    inputs = bs.assemble_input(None, gen.random((3, 4)))
    assert inputs.shape == (3, 4, 1)


def test_bs_assemble_input_image_only(config, training, gen):
    from dataclasses import replace

    bs = BSServer(replace(config, use_rf=False), training, seed=0)
    inputs = bs.assemble_input(gen.random((3, 4, 1)), None)
    assert inputs.shape == (3, 4, 1)


def test_bs_assemble_input_missing_modality_raises(config, training, gen):
    bs = BSServer(config, training, seed=0)
    with pytest.raises(ValueError):
        bs.assemble_input(None, gen.random((3, 4)))
    with pytest.raises(ValueError):
        bs.assemble_input(gen.random((3, 4, 1)), None)
    with pytest.raises(ValueError):
        bs.assemble_input(gen.random((3, 4, 7)), gen.random((3, 4)))


def test_bs_predict_shape(config, training, gen):
    bs = BSServer(config, training, seed=0)
    predictions = bs.predict(gen.random((5, 4, 1)), gen.random((5, 4)))
    assert predictions.shape == (5,)


def test_bs_loss_and_cut_gradient(config, training, gen):
    bs = BSServer(config, training, seed=0)
    features = gen.random((4, 4, 1))
    powers = gen.random((4, 4))
    targets = gen.random(4)
    loss, cut_gradient = bs.compute_loss_and_gradients(features, powers, targets)
    assert loss >= 0.0
    assert cut_gradient.shape == features.shape
    assert np.any(cut_gradient != 0.0)


def test_bs_rf_only_returns_no_cut_gradient(training, gen):
    bs = BSServer(ModelConfig(use_image=False), training, seed=0)
    loss, cut_gradient = bs.compute_loss_and_gradients(
        None, gen.random((4, 4)), gen.random(4)
    )
    assert cut_gradient is None
    assert loss >= 0.0


def test_bs_update_changes_parameters(config, training, gen):
    bs = BSServer(config, training, seed=0)
    before = [p.value.copy() for p in bs.rnn.parameters()]
    bs.compute_loss_and_gradients(gen.random((4, 4, 1)), gen.random((4, 4)), gen.random(4))
    bs.check_gradients()
    bs.apply_update()
    after = [p.value for p in bs.rnn.parameters()]
    assert any(not np.allclose(b, a) for b, a in zip(before, after))


def test_bs_without_optimizer_cannot_update(config, gen):
    bs = BSServer(config, training_config=None, seed=0)
    with pytest.raises(RuntimeError):
        bs.check_gradients()
    with pytest.raises(RuntimeError):
        bs.apply_update()


@pytest.mark.parametrize("clip", [5.0, 0.0], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bs_non_finite_gradient_raises_before_the_step(config, gen, clip, bad):
    training = TrainingConfig(batch_size=4, max_epochs=1, gradient_clip_norm=clip)
    bs = BSServer(config, training, seed=0)
    # One finite step first, so the Adam moments are not all zero.
    bs.compute_loss_and_gradients(
        gen.random((4, 4, 1)), gen.random((4, 4)), gen.random(4)
    )
    bs.check_gradients()
    bs.apply_update()
    loss, _ = bs.compute_loss_and_gradients(
        gen.random((4, 4, 1)), gen.random((4, 4)), gen.random(4)
    )
    assert np.isfinite(loss)
    before = flatten_state_tree(bs.state_dict())
    list(bs.rnn.parameters())[-1].grad.flat[0] = bad
    # Clipping by an infinite norm scales the gradients by 0 (inf * 0 = nan).
    with np.errstate(invalid="ignore"), pytest.raises(
        FloatingPointError, match="non-finite BS gradient norm"
    ):
        bs.check_gradients()
    after = flatten_state_tree(bs.state_dict())
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key
