"""The batched fleet backend vs. the per-member loop, plus the UE bank.

``FleetConfig.backend`` selects between the Python member loop and the
stacked (member-axis) kernels; the two are bitwise-identical, which these
tests pin at three levels: the raw :class:`StackedUEBank` against deep-copied
``UEClient`` loops, full ``FleetTrainer.fit`` histories and weights across
backends, and checkpoint interrupt/resume under the batched backend.
"""
import copy
import dataclasses

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetTrainer, StackedUEBank, shard_indices
from repro.split import ExperimentConfig, TrainingConfig
from repro.split.config import ModelConfig
from repro.split.ue import UEClient

from tests.fleet.test_fleet_checkpoint import fleet_weights, records_of

MAX_ROUNDS = 3


@pytest.fixture()
def config(tiny_model_config):
    return ExperimentConfig(
        model=tiny_model_config,
        training=TrainingConfig(
            batch_size=16, max_epochs=MAX_ROUNDS, steps_per_epoch=2, seed=5
        ),
    )


# -- backend selection --------------------------------------------------------------


def test_backend_validation():
    with pytest.raises(ValueError, match="backend"):
        FleetConfig(backend="simd")
    with pytest.raises(ValueError, match="parallel_average"):
        FleetConfig(mode="rotation", backend="batched")
    # Rotation under auto stays on the loop; parallel averaging vectorizes.
    assert FleetConfig(mode="rotation").resolved_backend() == "loop"
    assert FleetConfig(mode="parallel_average").resolved_backend() == "batched"
    assert (
        FleetConfig(mode="parallel_average", backend="loop").resolved_backend()
        == "loop"
    )


# -- the stacked bank vs. per-member clients ----------------------------------------


def _bank_clients(members=4):
    model = ModelConfig(
        image_height=12,
        image_width=12,
        pooling_height=4,
        pooling_width=4,
        cnn_channels=(2,),
        rnn_hidden_size=8,
        head_hidden_size=4,
        sequence_length=2,
    )
    training = TrainingConfig(gradient_clip_norm=1.0)
    return [UEClient(model, training, seed=member) for member in range(members)]


def test_bank_round_trip_matches_client_loop():
    """gather -> masked steps -> scatter equals each client updating itself."""
    rng = np.random.default_rng(17)
    clients = _bank_clients()
    loop_clients = copy.deepcopy(clients)
    bank = StackedUEBank(clients)
    members = bank.num_members

    masks = rng.random((3, members)) < 0.7
    masks[0] = True
    for mask in masks:
        images = rng.random((members, 3, 2, 12, 12))
        features = bank.forward(images)
        for member, client in enumerate(loop_clients):
            expected = client.forward(images[member])
            assert np.array_equal(features[member], expected)
        cut_gradients = rng.standard_normal(features.shape)
        cut_gradients[~mask] = 0.0
        bank.backward(cut_gradients)
        bank.apply_updates(mask)
        for member, client in enumerate(loop_clients):
            if mask[member]:
                client.backward(cut_gradients[member])
                client.apply_update()
            else:
                client.zero_grad()
    bank.scatter()

    for stacked_client, loop_client in zip(clients, loop_clients):
        for key, value in loop_client.get_weights().items():
            assert np.array_equal(stacked_client.get_weights()[key], value)
        assert (
            stacked_client.optimizer.step_count
            == loop_client.optimizer.step_count
        )
        stacked_slots = stacked_client.optimizer._slots()
        loop_slots = loop_client.optimizer._slots()
        for slot in ("first_moment", "second_moment"):
            for stacked_arr, loop_arr in zip(stacked_slots[slot], loop_slots[slot]):
                assert np.array_equal(stacked_arr, loop_arr)


def test_bank_state_dict_round_trip():
    rng = np.random.default_rng(3)
    clients = _bank_clients(members=2)
    bank = StackedUEBank(clients)
    features = bank.forward(rng.random((2, 2, 2, 12, 12)))
    bank.backward(rng.standard_normal(features.shape))
    bank.apply_updates(np.array([True, True]))
    state = bank.state_dict()

    restored = StackedUEBank(_bank_clients(members=2))
    restored.load_state_dict(state)
    for key, value in restored.state_dict().items():
        assert np.array_equal(value, state[key])
    with pytest.raises(KeyError):
        restored.load_state_dict({"step_counts": state["step_counts"]})
    with pytest.raises(ValueError):
        restored.load_state_dict({**state, "values/99": state["values/0"]})


def test_bank_rejects_heterogeneous_members():
    clients = _bank_clients(members=2)
    other_model = dataclasses.replace(clients[0].model_config, cnn_channels=(4,))
    mismatched = UEClient(other_model, TrainingConfig(), seed=9)
    with pytest.raises(ValueError, match="identical architectures"):
        StackedUEBank([clients[0], mismatched])
    without_optimizer = UEClient(clients[0].model_config, None, seed=1)
    with pytest.raises(ValueError, match="Adam"):
        StackedUEBank([clients[0], without_optimizer])


# -- full-run equivalence -----------------------------------------------------------


def _assert_backends_train_identically(config, split, num_ues, backend="batched"):
    """Fit ``backend`` and the loop reference; return the ``backend`` trainer
    and history after asserting the two runs match bit for bit."""

    def run(backend):
        trainer = FleetTrainer(
            config,
            FleetConfig(num_ues=num_ues, mode="parallel_average", backend=backend),
        )
        history = trainer.fit(split.train, split.validation, max_rounds=MAX_ROUNDS)
        return trainer, history, fleet_weights(trainer)

    def record_table(history):  # NaN-aware: wholly lost rounds have no loss
        return np.array([dataclasses.astuple(r) for r in history.records], dtype=float)

    _, loop_history, loop_weights = run("loop")
    trainer, history, weights = run(backend)
    assert np.array_equal(
        record_table(history), record_table(loop_history), equal_nan=True
    )
    assert history.total_elapsed_s == loop_history.total_elapsed_s
    assert history.medium_busy_s == loop_history.medium_busy_s
    assert dataclasses.asdict(history.communication) == dataclasses.asdict(
        loop_history.communication
    )
    for key, value in loop_weights.items():
        assert np.array_equal(value, weights[key]), key
    return trainer, history


def test_batched_and_loop_backends_train_identically(
    config, small_split, smoke_scale, smoke_split
):
    # Every codec family: stateless, vectorized quantizer, stateful top-k.
    for codec in ("identity", "uint8", "topk"):
        codec_config = dataclasses.replace(
            config, model=dataclasses.replace(config.model, codec=codec)
        )
        trainer, _ = _assert_backends_train_identically(codec_config, small_split, 3)
        assert trainer._bank is not None  # equal shards: the bank ran

    # A lossy link (the N=1 anchor's cap-0 link): failed uplinks, failed
    # downlinks and wholly lost joint steps.
    from repro.channel import PAPER_CHANNEL_PARAMS
    from repro.channel.params import LinkParams

    lossy = ExperimentConfig(
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
    _, history = _assert_backends_train_identically(lossy, smoke_split, 3)
    assert sum(record.lost_steps for record in history.records) > 0
    assert history.communication.uplink_failures > 0
    assert history.communication.downlink_failures > 0

    # Unequal shards: 190 windows over 12 members give batches of 15 and 16,
    # which the bank cannot stack, so the auto backend runs the member loop.
    batch_size = config.training.batch_size
    shards = shard_indices(len(small_split.train), 12)
    assert {min(batch_size, len(shard)) for shard in shards} == {15, 16}
    trainer, _ = _assert_backends_train_identically(
        config, small_split, 12, backend="auto"
    )
    assert trainer._bank is None


def test_batched_resume_is_bit_identical(config, small_split, tmp_path):
    """Interrupt an N=8 batched run mid-way; the resume must lose nothing."""
    fleet_config = FleetConfig(
        num_ues=8, mode="parallel_average", backend="batched"
    )
    reference_trainer = FleetTrainer(config, fleet_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )
    reference_weights = fleet_weights(reference_trainer)

    path = tmp_path / "batched-n8.npz"
    FleetTrainer(config, fleet_config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS - 1,
        checkpoint_path=path,
    )
    resumed_trainer = FleetTrainer(config, fleet_config)
    resumed = resumed_trainer.fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS,
        resume_from=path,
    )
    assert records_of(resumed) == records_of(reference)
    assert resumed.total_elapsed_s == reference.total_elapsed_s
    restored = fleet_weights(resumed_trainer)
    for key, value in reference_weights.items():
        assert np.array_equal(value, restored[key]), key


def test_checkpoints_interchange_across_backends(config, small_split, tmp_path):
    """A checkpoint written under one backend resumes under the other."""
    loop_config = FleetConfig(num_ues=2, mode="parallel_average", backend="loop")
    batched_config = FleetConfig(
        num_ues=2, mode="parallel_average", backend="batched"
    )
    reference_trainer = FleetTrainer(config, loop_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )

    path = tmp_path / "loop-written.npz"
    FleetTrainer(config, loop_config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=1,
        checkpoint_path=path,
    )
    resumed_trainer = FleetTrainer(config, batched_config)
    resumed = resumed_trainer.fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS,
        resume_from=path,
    )
    assert records_of(resumed) == records_of(reference)
    reference_weights = fleet_weights(reference_trainer)
    restored = fleet_weights(resumed_trainer)
    for key, value in reference_weights.items():
        assert np.array_equal(value, restored[key]), key
