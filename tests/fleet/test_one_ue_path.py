"""Every UE trains through the stacked bank, and a diverged step fails loudly.

``UEClient.backward`` runs the UE network's backward at one member for the
benchmark harness; no training path may call it.  And because the
bank's ``apply_updates``, ``BSServer.compute_loss_and_gradients`` and
``BSServer.check_gradients`` guard the only places a UE update, a BS loss or
a BS update happens, their finiteness checks cover both fleet modes: a NaN
smuggled in through a codec or a BS gradient stops the fit before either
half of that step moves, and the round checkpoint keeps the last finished
round.
"""
import dataclasses

import numpy as np
import pytest

from repro.channel import PAPER_CHANNEL_PARAMS
from repro.channel.params import LinkParams
from repro.fleet import FleetConfig, FleetTrainer
from repro.nn.serialization import flatten_state_tree
from repro.split import ExperimentConfig, SplitTrainingProtocol
from repro.split.bs import BSServer
from repro.split.checkpoint import Checkpoint
from repro.split.codecs import DOWNLINK_STREAM, UPLINK_STREAM, TopKCodec
from repro.split.ue import UEClient

ROUNDS = 2


def _lossy_config(smoke_scale):
    """The N=1 anchor's cap-0 link: lost uplinks and lost downlinks."""
    return ExperimentConfig(
        model=smoke_scale.base_model_config().with_pooling(1),
        training=dataclasses.replace(
            smoke_scale.training_config(), max_retransmissions=0
        ),
        channel=dataclasses.replace(
            PAPER_CHANNEL_PARAMS,
            distance_m=32.0,
            downlink=LinkParams(transmit_power_dbm=-10.0, bandwidth_hz=100e6),
        ),
    )


@pytest.mark.parametrize(
    "case",
    [
        ("rotation", 1, "img+rf"),
        ("rotation", 1, "lossy"),
        ("rotation", 3, "img+rf"),
        ("parallel_average", 3, "img+rf"),
        ("parallel_average", 12, "img+rf"),
    ],
    ids=lambda case: "-".join(map(str, case)),
)
def test_training_never_calls_the_per_member_reference(
    case, tiny_experiment_config, small_split, smoke_scale, smoke_split, monkeypatch
):
    mode, num_ues, variant = case
    config, split = tiny_experiment_config, small_split
    if variant == "lossy":
        config, split = _lossy_config(smoke_scale), smoke_split

    def refuse(self, *args, **kwargs):
        raise AssertionError("training called UEClient.backward")

    monkeypatch.setattr(UEClient, "backward", refuse)
    trainer = FleetTrainer(config, FleetConfig(num_ues=num_ues, mode=mode))
    initial = trainer.fleet.members[0].ue.cnn.state_dict()
    history = trainer.fit(split.train, split.validation, max_rounds=ROUNDS)

    steps = sum(record.steps for record in history.records)
    assert sum(record.lost_steps for record in history.records) < steps
    if variant == "lossy":
        assert sum(record.lost_steps for record in history.records) > 0
    trained = trainer.fleet.members[0].ue.cnn.state_dict()
    assert any(not np.array_equal(trained[key], initial[key]) for key in initial)


def _arm_after_first_round(monkeypatch, trainer):
    """A list that turns truthy once round 1's evaluation has run."""
    armed = []
    original_evaluate = trainer.evaluate

    def evaluate(sequences):
        result = original_evaluate(sequences)
        armed.append(True)
        return result

    monkeypatch.setattr(trainer, "evaluate", evaluate)
    return armed


def _assert_checkpoint_holds_round_1_of(path, reference):
    checkpoint = Checkpoint.load(path)
    assert checkpoint.progress == 1
    stored = flatten_state_tree(checkpoint.state)
    expected = flatten_state_tree(reference.state_dict())
    assert stored.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(stored[key], value), key


def _poison_codec_after_first_round(monkeypatch, trainer, stream):
    """From round 2 on, the top-k codec decodes ``stream`` payloads to NaN."""
    armed = _arm_after_first_round(monkeypatch, trainer)
    original_encode_decode = TopKCodec.encode_decode

    def encode_decode(self, values, name):
        decoded, bits = original_encode_decode(self, values, name)
        if armed and name == stream:
            decoded = np.full_like(decoded, np.nan)
        return decoded, bits

    monkeypatch.setattr(TopKCodec, "encode_decode", encode_decode)


@pytest.mark.parametrize(
    "stream, message",
    [
        (DOWNLINK_STREAM, r"non-finite UE gradient norm at bank member\(s\)"),
        (UPLINK_STREAM, r"non-finite BS loss"),
    ],
)
@pytest.mark.parametrize(
    "mode, num_ues", [("rotation", 1), ("parallel_average", 3)]
)
def test_non_finite_step_raises_and_keeps_the_last_finite_checkpoint(
    mode, num_ues, stream, message, tiny_experiment_config, small_split,
    tmp_path, monkeypatch,
):
    config = dataclasses.replace(
        tiny_experiment_config,
        model=dataclasses.replace(tiny_experiment_config.model, codec="topk"),
    )
    fleet_config = FleetConfig(num_ues=num_ues, mode=mode)
    reference = FleetTrainer(config, fleet_config)
    reference.fit(small_split.train, small_split.validation, max_rounds=1)

    trainer = FleetTrainer(config, fleet_config)
    _poison_codec_after_first_round(monkeypatch, trainer, stream)
    path = tmp_path / "run.npz"
    with pytest.raises(FloatingPointError, match=rf"^round 2\b.*{message}"):
        trainer.fit(
            small_split.train,
            small_split.validation,
            max_rounds=ROUNDS + 1,
            checkpoint_path=path,
        )

    _assert_checkpoint_holds_round_1_of(path, reference)


@pytest.mark.parametrize(
    "mode, num_ues", [("rotation", 1), ("parallel_average", 3)]
)
def test_non_finite_bs_gradient_under_a_finite_loss_raises(
    mode, num_ues, tiny_experiment_config, small_split, tmp_path, monkeypatch
):
    """A NaN in one BS weight gradient, behind a finite loss, stops the fit
    before either half of that step updates, and the checkpoint keeps
    round 1."""
    fleet_config = FleetConfig(num_ues=num_ues, mode=mode)
    reference = FleetTrainer(tiny_experiment_config, fleet_config)
    reference.fit(small_split.train, small_split.validation, max_rounds=1)

    trainer = FleetTrainer(tiny_experiment_config, fleet_config)
    armed = _arm_after_first_round(monkeypatch, trainer)
    losses, snapshots, ue_snapshots = [], [], []
    original_gradients = BSServer.compute_loss_and_gradients

    def compute_loss_and_gradients(self, *args):
        loss, cut_gradient = original_gradients(self, *args)
        if armed:
            losses.append(loss)
            snapshots.append(flatten_state_tree(self.state_dict()))
            ue_snapshots.append(_ue_side_state(trainer))
            list(self.rnn.parameters())[-1].grad.flat[0] = np.nan
        return loss, cut_gradient

    monkeypatch.setattr(
        BSServer, "compute_loss_and_gradients", compute_loss_and_gradients
    )
    path = tmp_path / "run.npz"
    with pytest.raises(
        FloatingPointError,
        match=r"^round 2, step 1\b.*non-finite BS gradient norm",
    ):
        trainer.fit(
            small_split.train,
            small_split.validation,
            max_rounds=ROUNDS + 1,
            checkpoint_path=path,
        )

    assert len(losses) == 1 and np.isfinite(losses[0])
    after = flatten_state_tree(trainer.fleet.bs.state_dict())
    assert after.keys() == snapshots[0].keys()
    for key, value in snapshots[0].items():
        assert np.array_equal(after[key], value), key
    ue_after = _ue_side_state(trainer)
    assert ue_after.keys() == ue_snapshots[0].keys()
    for key, value in ue_snapshots[0].items():
        assert np.array_equal(ue_after[key], value), key
    _assert_checkpoint_holds_round_1_of(path, reference)


def _ue_side_state(trainer):
    """Every member's UE weights and Adam state: the fleet's bank."""
    return flatten_state_tree(trainer.fleet.bank.state_dict())


def _topk(config):
    return dataclasses.replace(
        config, model=dataclasses.replace(config.model, codec="topk")
    )


def _codec_entries(state):
    """Every codec entry of a state tree, flattened: both residual streams
    of every member."""
    return {
        key: value
        for key, value in flatten_state_tree(state).items()
        if "codec//" in key
    }


def _poison_downlink_decode(monkeypatch):
    """From now on the top-k codec decodes downlink payloads to NaN."""
    original_encode_decode = TopKCodec.encode_decode

    def encode_decode(self, values, name):
        decoded, bits = original_encode_decode(self, values, name)
        if name == DOWNLINK_STREAM:
            decoded = np.full_like(decoded, np.nan)
        return decoded, bits

    monkeypatch.setattr(TopKCodec, "encode_decode", encode_decode)


def _assert_same_entries(after, before):
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


def test_non_finite_ue_gradient_leaves_the_protocol_codec_unmoved(
    tiny_experiment_config, monkeypatch
):
    protocol = SplitTrainingProtocol(_topk(tiny_experiment_config))
    model = protocol.config.model
    rng = np.random.default_rng(0)
    batch = (
        rng.random((16, model.sequence_length, model.image_height, model.image_width)),
        rng.normal(size=(16, model.sequence_length)),
        rng.normal(size=16),
    )
    for _ in range(2):  # both residual streams exist and are nonzero
        assert protocol.training_step(*batch).updated
    before = _codec_entries(protocol.state_dict())
    assert "codec//residuals//downlink" in before

    _poison_downlink_decode(monkeypatch)
    with pytest.raises(FloatingPointError, match="non-finite UE gradient norm"):
        protocol.training_step(*batch)
    _assert_same_entries(_codec_entries(protocol.state_dict()), before)


def test_non_finite_ue_gradient_leaves_every_fleet_codec_unmoved(
    tiny_experiment_config, small_split, monkeypatch
):
    trainer = FleetTrainer(
        _topk(tiny_experiment_config),
        FleetConfig(num_ues=2, mode="parallel_average"),
    )
    before = []
    original_evaluate = trainer.evaluate

    def evaluate(sequences):
        result = original_evaluate(sequences)
        if not before:  # end of round 1: the state round 2 starts from
            before.append(_codec_entries(trainer.state_dict()))
            _poison_downlink_decode(monkeypatch)
        return result

    monkeypatch.setattr(trainer, "evaluate", evaluate)
    with pytest.raises(
        FloatingPointError,
        match=r"^round 2, step 1\b.*non-finite UE gradient norm",
    ):
        trainer.fit(small_split.train, small_split.validation, max_rounds=3)
    downlinks = [key for key in before[0] if key.endswith("codec//residuals//downlink")]
    assert len(downlinks) == 2
    _assert_same_entries(_codec_entries(trainer.state_dict()), before[0])
