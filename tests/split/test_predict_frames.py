"""Frame-deduplicated inference: the UE CNN runs once per distinct frame.

``SplitTrainingProtocol.predict`` gathers per-frame UE features into the
windows by ``frame_ids``.  These tests pin that the ids only save work: the
predictions are bitwise those of the per-window path (``frame_ids=None``),
because a frame's features do not depend on which frames share its batch.
"""
import numpy as np
import pytest

from repro.fleet import bank
from repro.split import ExperimentConfig, ModelConfig, TrainingConfig
from repro.split.protocol import SplitTrainingProtocol
from repro.split.trainer import SplitTrainer

LENGTH = 4
SIZE = 8


def make_protocol(codec="identity", pooling=SIZE, use_rf=True):
    model = ModelConfig(
        image_height=SIZE,
        image_width=SIZE,
        pooling_height=pooling,
        pooling_width=pooling,
        cnn_channels=(2,),
        rnn_hidden_size=6,
        head_hidden_size=0,
        use_rf=use_rf,
        codec=codec,
        codec_topk_fraction=0.25,
    )
    training = TrainingConfig(batch_size=4, seed=3)
    return SplitTrainingProtocol(ExperimentConfig(model=model, training=training))


def sliding_windows(num_windows, seed=0, stride=1):
    """Stride-``stride`` windows over a random frame stream, with their ids."""
    gen = np.random.default_rng(seed)
    frames = gen.random((stride * (num_windows - 1) + LENGTH, SIZE, SIZE))
    ids = stride * np.arange(num_windows)[:, None] + np.arange(LENGTH)
    powers = gen.normal(size=ids.shape)
    return frames[ids], powers, ids


@pytest.mark.parametrize("codec", ["identity", "uint8", "int4", "topk"])
@pytest.mark.parametrize("pooling", [SIZE, 4], ids=["1pixel", "4x4"])
@pytest.mark.parametrize("batch_size", [1, 3, None], ids=["b1", "b3", "bM"])
def test_deduplicated_predictions_equal_per_window_predictions(
    codec, pooling, batch_size
):
    protocol = make_protocol(codec, pooling)
    images, powers, ids = sliding_windows(11)
    # Out of temporal order, with a repeated window and a gap, as a
    # subsampled or shuffled evaluation set would be.
    order = np.array([7, 0, 1, 2, 10, 3, 3, 9, 5])
    images, powers, ids = images[order], powers[order], ids[order]
    batch_size = batch_size or len(order)
    per_window = protocol.predict(images, powers, batch_size=batch_size)
    deduplicated = protocol.predict(
        images, powers, batch_size=batch_size, frame_ids=ids
    )
    assert np.array_equal(deduplicated, per_window)


@pytest.mark.parametrize("pooling", [SIZE, 4], ids=["1pixel", "4x4"])
def test_ue_features_are_bitwise_independent_of_the_cnn_batch(pooling):
    protocol = make_protocol(pooling=pooling)
    gen = np.random.default_rng(1)
    frames = gen.random((13, 1, SIZE, SIZE))
    whole = protocol.ue.forward(frames)
    for chunk in (1, 2, 5, 12):
        parts = [
            protocol.ue.forward(frames[start : start + chunk])
            for start in range(0, len(frames), chunk)
        ]
        assert np.array_equal(np.concatenate(parts), whole)


def test_cnn_sees_each_distinct_frame_once(monkeypatch):
    protocol = make_protocol()
    images, powers, ids = sliding_windows(10)
    seen = []
    forward = bank.ue_forward

    def counting_forward(plan, weights, images, *args, **kwargs):
        seen.append(images.shape[1])
        return forward(plan, weights, images, *args, **kwargs)

    monkeypatch.setattr(bank, "ue_forward", counting_forward)
    protocol.predict(images, powers, frame_ids=ids)
    assert sum(seen) == 13
    seen.clear()
    protocol.predict(images, powers)
    assert sum(seen) == 40
    # batch_size bounds every CNN batch at batch_size * L distinct frames.
    seen.clear()
    protocol.predict(images, powers, batch_size=2, frame_ids=ids)
    assert seen == [8, 5]


def test_img_only_predictions_use_the_same_frame_path():
    protocol = make_protocol(use_rf=False)
    images, _, ids = sliding_windows(6, stride=2)
    assert np.array_equal(
        protocol.predict(images, None, batch_size=4, frame_ids=ids),
        protocol.predict(images, None, batch_size=4),
    )


def test_frame_ids_must_name_every_window_element():
    protocol = make_protocol()
    images, powers, ids = sliding_windows(5)
    with pytest.raises(ValueError, match="frame_ids"):
        protocol.predict(images, powers, frame_ids=ids[:, :2])
    with pytest.raises(ValueError, match="frame_ids"):
        protocol.predict(images, powers, frame_ids=ids.ravel())


def test_empty_window_set_predicts_nothing():
    protocol = make_protocol()
    images = np.zeros((0, LENGTH, SIZE, SIZE))
    assert protocol.predict(images, np.zeros((0, LENGTH))).shape == (0,)


def test_trainer_predictions_equal_the_per_window_reference(
    tiny_experiment_config, small_split
):
    """``predict_dbm`` passes frame ids; the reference predicts per window."""
    trainer = SplitTrainer(tiny_experiment_config)
    trainer.fit(small_split.train, small_split.validation, max_rounds=1)
    validation = small_split.validation.subset(
        np.linspace(0, len(small_split.validation) - 1, 25).astype(int)
    )
    powers = trainer.normalizer.normalize(validation.power_sequences)
    reference = trainer.normalizer.denormalize(
        trainer.protocol.predict(
            validation.image_sequences,
            powers,
            batch_size=tiny_experiment_config.training.eval_batch_size,
        )
    )
    assert np.array_equal(trainer.predict_dbm(validation), reference)
