"""Tests for the split training protocol, trainer and normalizer."""
from dataclasses import replace

import numpy as np
import pytest

from repro.channel import LinkParams, WirelessChannelParams
from repro.split import (
    ExperimentConfig,
    ModelConfig,
    PowerNormalizer,
    SplitTrainingProtocol,
    TrainingConfig,
)
from repro.split.trainer import SplitTrainer


@pytest.fixture()
def model_config():
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
def training_config():
    return TrainingConfig(batch_size=8, max_epochs=2, steps_per_epoch=2, seed=0)


@pytest.fixture()
def gen():
    return np.random.default_rng(0)


def make_batch(gen, batch=8, length=4, size=8):
    images = gen.random((batch, length, size, size))
    powers = gen.normal(size=(batch, length))
    targets = gen.normal(size=batch)
    return images, powers, targets


# -- normalizer --------------------------------------------------------------------


def test_normalizer_roundtrip(gen):
    values = gen.normal(loc=-40.0, scale=8.0, size=200)
    normalizer = PowerNormalizer.fit(values)
    normalized = normalizer.normalize(values)
    assert normalized.mean() == pytest.approx(0.0, abs=1e-9)
    assert normalized.std() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(normalizer.denormalize(normalized), values)


def test_normalizer_constant_input_uses_unit_std():
    normalizer = PowerNormalizer.fit(np.full(10, -30.0))
    assert normalizer.std_db == 1.0
    assert np.allclose(normalizer.normalize([-30.0]), 0.0)


def test_normalizer_validation():
    with pytest.raises(ValueError):
        PowerNormalizer(mean_dbm=0.0, std_db=0.0)
    with pytest.raises(ValueError):
        PowerNormalizer.fit()
    with pytest.raises(ValueError):
        PowerNormalizer.fit(np.array([]))


# -- protocol ----------------------------------------------------------------------


def test_protocol_training_step_multimodal(model_config, training_config, gen):
    protocol = SplitTrainingProtocol(
        ExperimentConfig(model=model_config, training=training_config)
    )
    images, powers, targets = make_batch(gen)
    result = protocol.training_step(images, powers, targets)
    assert result.updated
    assert np.isfinite(result.loss)
    assert result.communication is not None
    assert result.communication.success
    # Elapsed time includes both compute terms plus at least two slots.
    minimum = (
        training_config.ue_compute_time_s
        + training_config.bs_compute_time_s
        + 2 * 1e-3
    )
    assert result.elapsed_s >= minimum - 1e-12


def test_protocol_rf_only_has_no_communication(model_config, training_config, gen):
    config = ExperimentConfig(
        model=replace(model_config, use_image=False), training=training_config
    )
    protocol = SplitTrainingProtocol(config)
    assert protocol.ue is None and protocol.arq is None
    _, powers, targets = make_batch(gen)
    result = protocol.training_step(None, powers, targets)
    assert result.updated
    assert result.communication is None
    assert result.elapsed_s == pytest.approx(training_config.bs_compute_time_s)


def test_protocol_lost_step_when_payload_undecodable(model_config, training_config, gen):
    # Shrink the uplink bandwidth so even the one-pixel payload cannot be decoded.
    starved_channel = WirelessChannelParams(
        uplink=LinkParams(transmit_power_dbm=-40.0, bandwidth_hz=1e3),
        downlink=LinkParams(transmit_power_dbm=40.0, bandwidth_hz=100e6),
    )
    config = ExperimentConfig(
        model=model_config, training=training_config, channel=starved_channel
    )
    protocol = SplitTrainingProtocol(config)
    before = [p.value.copy() for p in protocol.bs.rnn.parameters()]
    images, powers, targets = make_batch(gen)
    result = protocol.training_step(images, powers, targets)
    assert not result.updated
    assert np.isnan(result.loss)
    after = [p.value for p in protocol.bs.rnn.parameters()]
    assert all(np.allclose(b, a) for b, a in zip(before, after))


def test_protocol_training_reduces_loss(model_config, gen):
    training = TrainingConfig(batch_size=16, max_epochs=1, steps_per_epoch=1, seed=1)
    protocol = SplitTrainingProtocol(ExperimentConfig(model=model_config, training=training))
    images, powers, targets = make_batch(gen, batch=16)
    first = protocol.training_step(images, powers, targets).loss
    losses = [protocol.training_step(images, powers, targets).loss for _ in range(40)]
    assert losses[-1] < first


def test_protocol_predict_shapes_and_modes(model_config, training_config, gen):
    protocol = SplitTrainingProtocol(
        ExperimentConfig(model=model_config, training=training_config)
    )
    images, powers, _ = make_batch(gen, batch=10)
    predictions = protocol.predict(images, powers, batch_size=4)
    assert predictions.shape == (10,)
    with pytest.raises(ValueError):
        protocol.predict(None, powers)
    with pytest.raises(ValueError):
        protocol.predict(images, None)


def test_protocol_predict_drops_the_training_bank(model_config, training_config, gen):
    """predict() frees the one-member training bank and its buffers; the next
    training step rebuilds it from the client."""
    protocol = SplitTrainingProtocol(
        ExperimentConfig(model=model_config, training=training_config)
    )
    images, powers, targets = make_batch(gen, batch=6)

    assert protocol.training_step(images, powers, targets).updated
    assert protocol._bank is not None
    protocol.predict(images, powers, batch_size=3)
    assert protocol._bank is None
    assert protocol.training_step(images, powers, targets).updated
    assert protocol._bank is not None


def test_protocol_predict_independent_of_batch_size(
    model_config, training_config, gen
):
    """eval_batch_size moves predictions only at the ulp level here.

    The identity codec's features are chunk-independent; only the BS GEMM
    blocking sees the chunk (moves of at most ~1e-16 at fast scale).  Lossy
    codecs move further, since their range and top-k selection are per chunk.
    """
    protocol = SplitTrainingProtocol(
        ExperimentConfig(model=model_config, training=training_config)
    )
    images, powers, _ = make_batch(gen, batch=10)
    full = protocol.predict(images, powers, batch_size=10)
    chunked = protocol.predict(images, powers, batch_size=3)
    assert np.allclose(full, chunked)


def test_trainer_fit_records_learning_curve(tiny_experiment_config, small_split):
    trainer = SplitTrainer(tiny_experiment_config)
    history = trainer.fit(small_split.train, small_split.validation)
    assert len(history.records) >= 1
    assert history.records[0].round == 1
    assert history.total_elapsed_s > 0.0
    assert np.all(np.diff(history.elapsed_times_s) > 0)
    assert np.isfinite(history.final_rmse_db)
    assert history.best_rmse_db <= history.records[0].validation_rmse_db + 1e-9
    assert history.communication is not None
    assert history.communication.steps == sum(r.steps - r.lost_steps for r in history.records) + sum(r.lost_steps for r in history.records)


def test_trainer_second_fit_does_not_mutate_first_history(
    tiny_experiment_config, small_split
):
    """Each fit() gets its own communication snapshot, reset at fit start."""
    trainer = SplitTrainer(tiny_experiment_config)
    first = trainer.fit(small_split.train, small_split.validation)
    first_steps = first.communication.steps
    first_slots = first.communication.uplink_slots
    assert first_steps > 0

    second = trainer.fit(small_split.train, small_split.validation)
    # The first run's history must be untouched by the second fit ...
    assert first.communication.steps == first_steps
    assert first.communication.uplink_slots == first_slots
    # ... and the second run's statistics start from zero, not accumulate.
    expected_steps = sum(r.steps for r in second.records)
    assert second.communication.steps == expected_steps
    assert second.communication is not first.communication


def test_trainer_history_communication_is_a_snapshot(
    tiny_experiment_config, small_split
):
    trainer = SplitTrainer(tiny_experiment_config)
    history = trainer.fit(small_split.train, small_split.validation)
    live = trainer.protocol.arq.statistics
    assert history.communication is not live
    live_steps = live.steps
    trainer.protocol.arq.exchange(1000.0, 1000.0)
    assert trainer.protocol.arq.statistics.steps == live_steps + 1
    assert history.communication.steps == live_steps


def test_trainer_predict_dbm_scale(tiny_experiment_config, small_split):
    trainer = SplitTrainer(tiny_experiment_config)
    trainer.fit(small_split.train, small_split.validation)
    predictions = trainer.predict_dbm(small_split.validation)
    assert predictions.shape == (len(small_split.validation),)
    # Predictions should land in a plausible dBm range, not normalized units.
    assert np.all(predictions < 0.0)
    assert np.all(predictions > -90.0)


def test_trainer_early_stop_on_loose_target(tiny_model_config, small_split):
    training = TrainingConfig(
        batch_size=16, max_epochs=50, steps_per_epoch=1, target_rmse_db=50.0, seed=0
    )
    trainer = SplitTrainer(ExperimentConfig(model=tiny_model_config, training=training))
    history = trainer.fit(small_split.train, small_split.validation)
    assert history.reached_target
    assert len(history.records) == 1


def test_trainer_respects_max_epochs_override(tiny_experiment_config, small_split):
    trainer = SplitTrainer(tiny_experiment_config)
    history = trainer.fit(small_split.train, small_split.validation, max_rounds=1)
    assert len(history.records) == 1


def test_trainer_evaluate_before_fit_raises(tiny_experiment_config, small_split):
    trainer = SplitTrainer(tiny_experiment_config)
    with pytest.raises(RuntimeError):
        trainer.predict_dbm(small_split.validation)


# -- payload codecs in the protocol -------------------------------------------------


def test_training_step_rejects_mismatched_cut_tensor(
    model_config, training_config, gen
):
    """The runtime payload-accounting assertion: a cut tensor whose element
    count diverges from the PayloadModel sizing must fail loudly, not ship
    mis-sized payloads."""
    from repro.channel import PayloadModel

    protocol = SplitTrainingProtocol(
        ExperimentConfig(model=model_config, training=training_config)
    )
    # Simulate the accounting drifting out of sync with the architecture: a
    # payload model sized for a different pooling region.
    protocol.payload_model = PayloadModel(
        image_height=8, image_width=8, pooling_height=4, pooling_width=4
    )
    images, powers, targets = make_batch(gen)
    with pytest.raises(ValueError, match="payload"):
        protocol.training_step(images, powers, targets)


@pytest.mark.parametrize("codec", ["uint8", "int4", "topk"])
def test_codec_shrinks_phase_payloads(
    codec, model_config, training_config, gen, monkeypatch
):
    """Both phases of a step move the codec's sizes: the encoded uplink and
    the downlink bound."""
    import repro.fleet.trainer as trainer_module

    shipped = []
    for name in ("transmit_uplink_across", "transmit_downlink_across"):
        transmit = getattr(trainer_module, name)

        def spy(sessions, payload_bits, transmit=transmit):
            shipped.append(float(np.asarray(payload_bits).item()))
            return transmit(sessions, payload_bits)

        monkeypatch.setattr(trainer_module, name, spy)
    images, powers, targets = make_batch(gen)
    for model in (model_config, replace(model_config, codec=codec)):
        protocol = SplitTrainingProtocol(
            ExperimentConfig(model=model, training=training_config)
        )
        assert protocol.training_step(images, powers, targets).updated
    base_uplink, base_downlink, uplink, downlink = shipped
    assert uplink < base_uplink
    assert downlink < base_downlink


def test_codec_step_trains_and_reports_encoded_bits(
    model_config, training_config, gen
):
    protocol = SplitTrainingProtocol(
        ExperimentConfig(
            model=replace(model_config, codec="uint8"), training=training_config
        )
    )
    images, powers, targets = make_batch(gen)
    result = protocol.training_step(images, powers, targets)
    assert result.updated
    assert np.isfinite(result.loss)


def test_lost_step_does_not_advance_downlink_residual(model_config, gen):
    """Error feedback is a delivered-gradient mechanism: a lost exchange must
    not fold the never-transmitted gradient into the downlink residual."""
    starved_channel = WirelessChannelParams(
        uplink=LinkParams(transmit_power_dbm=-40.0, bandwidth_hz=1e3),
        downlink=LinkParams(transmit_power_dbm=40.0, bandwidth_hz=100e6),
    )
    training = TrainingConfig(batch_size=8, max_epochs=1, steps_per_epoch=1, seed=1)
    config = ExperimentConfig(
        model=replace(model_config, codec="topk"),
        training=training,
        channel=starved_channel,
    )
    protocol = SplitTrainingProtocol(config)
    images, powers, targets = make_batch(gen)
    result = protocol.training_step(images, powers, targets)
    assert not result.updated
    residuals = protocol.codec.state_dict()["residuals"]
    assert "downlink" not in residuals
