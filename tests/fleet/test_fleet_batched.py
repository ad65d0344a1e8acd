"""The stacked UE bank, the one UE store and training engine, against its oracles.

:class:`StackedUEBank` holds and trains every UE CNN.  It must be
bitwise-identical to the per-member reference, which these tests pin at
three levels: the raw bank against per-member networks, each with its own
parameters and Adam (hand-picked and property-based, plus the bank-of-one
view), full ``FleetTrainer.fit`` histories and state trees
against the same fit with the
:class:`~tests.fleet.member_loop_oracle.MemberLoop` oracle installed as the
fleet's store, and checkpoints that interchange between the two.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, FleetTrainer, StackedUEBank, shard_indices
from repro.nn.serialization import flatten_state_tree
from repro.split import ExperimentConfig, TrainingConfig
from repro.split.config import ModelConfig
from repro.split.ue import UEClient
from repro.utils import parallel

from tests.fleet.member_loop_oracle import MemberLoop, MemberNetwork, oracle_trainer
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


# -- the stacked bank vs. per-member networks ---------------------------------------


def _bank_and_oracle(members=4, gradient_clip_norm=1.0):
    """A bank of ``members`` UEs, each from its own initial weights, and the
    per-member oracle starting from the same weights."""
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
    training = TrainingConfig(gradient_clip_norm=gradient_clip_norm)
    clients = [UEClient(model, training, seed=member) for member in range(members)]
    bank = StackedUEBank.broadcast(
        clients[0].plan, _initial(clients[0]), members, training
    )
    for row, client in enumerate(clients):
        bank.scatter(_initial(client), [row])
    oracle = MemberLoop([MemberNetwork(client, training) for client in clients])
    return bank, oracle


def _initial(client):
    return [param.value for param in client.cnn.parameters()]


def _assert_same_state(bank, reference):
    """Weights, Adam moments and step counts, bit for bit."""
    state = bank.state_dict()
    expected = reference.state_dict()
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(state[key], value), key


def test_bank_round_trip_matches_client_loop():
    """Masked steps of the bank equal each member updating itself."""
    rng = np.random.default_rng(17)
    bank, oracle = _bank_and_oracle()
    members = 4

    masks = rng.random((3, members)) < 0.7
    masks[0] = True
    for mask in masks:
        images = rng.random((members, 3, 2, 12, 12))
        features = bank.forward(images)
        expected = oracle.forward(images)
        for member in range(members):
            assert np.array_equal(features[member], expected[member])
        cut_gradients = rng.standard_normal(features.shape)
        cut_gradients[~mask] = 0.0
        bank.backward(cut_gradients)
        bank.apply_updates(mask)
        delivered = np.flatnonzero(mask).tolist()
        oracle.backward_and_update(delivered, cut_gradients[delivered])
    _assert_same_state(bank, oracle)


@settings(max_examples=30, deadline=None)
@given(
    members=st.integers(1, 5),
    base_size=st.integers(1, 3),
    two_sizes=st.booleans(),
    clip=st.sampled_from([0.0, 0.05, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bank_matches_client_reference_property(
    members, base_size, two_sizes, clip, seed
):
    """Random fleets: the bank equals per-member networks over 3 steps.

    Batch sizes are equal or take two values (the strided-shard case, one
    stacked pass per size); clipping is off, binding or slack; each step
    delivers a random subset of the members.
    """
    rng = np.random.default_rng(seed)
    bank, oracle = _bank_and_oracle(members, gradient_clip_norm=clip)
    sizes = [
        base_size + (int(rng.integers(2)) if two_sizes else 0)
        for _ in range(members)
    ]
    for _ in range(3):
        images = [rng.random((size, 2, 12, 12)) for size in sizes]
        features = bank.forward(images)
        assert isinstance(features, np.ndarray) == (len(set(sizes)) == 1)
        for member, expected in enumerate(oracle.forward(images)):
            assert np.array_equal(features[member], expected)
        delivered = np.flatnonzero(rng.random(members) < 0.6).tolist()
        if not delivered:
            continue
        gradients = [rng.standard_normal(features[m].shape) for m in delivered]
        bank.backward_and_update(delivered, gradients)
        oracle.backward_and_update(delivered, gradients)
    _assert_same_state(bank, oracle)


def test_member_view_trains_its_row_in_place():
    """A bank of one over row k steps that row, step count included, as the
    whole bank stepping member k alone; the other rows stay."""
    rng = np.random.default_rng(11)
    bank, _ = _bank_and_oracle(members=3)
    reference, _ = _bank_and_oracle(members=3)
    view = bank.member(1)
    for _ in range(2):
        images = rng.random((3, 2, 2, 12, 12))
        gradient = rng.standard_normal((1, 2, 2, 9))
        view.forward(images[1:2])
        view.backward_and_update([0], gradient)
        reference.forward(images)
        reference.backward_and_update([1], gradient)
    _assert_same_state(bank, reference)
    assert bank.state_dict()["step_counts"].tolist() == [0, 2, 0]


def test_bank_rejects_non_finite_gradients_before_any_update():
    rng = np.random.default_rng(5)
    bank, _ = _bank_and_oracle(members=3)
    before = bank.state_dict()
    features = bank.forward(rng.random((3, 2, 2, 12, 12)))
    gradients = rng.standard_normal(features.shape)
    gradients[2, 0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"member\(s\) \[2\] of 3"):
        bank.backward_and_update([0, 1, 2], gradients)
    after = bank.state_dict()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


def test_bank_state_dict_round_trip():
    rng = np.random.default_rng(3)
    bank, _ = _bank_and_oracle(members=2)
    features = bank.forward(rng.random((2, 2, 2, 12, 12)))
    bank.backward(rng.standard_normal(features.shape))
    bank.apply_updates(np.array([True, True]))
    state = bank.state_dict()

    restored, _ = _bank_and_oracle(members=2)
    restored.load_state_dict(state)
    for key, value in restored.state_dict().items():
        assert np.array_equal(value, state[key])
    with pytest.raises(KeyError):
        restored.load_state_dict({"step_counts": state["step_counts"]})
    with pytest.raises(ValueError):
        restored.load_state_dict({**state, "values/99": state["values/0"]})
    wider, _ = _bank_and_oracle(members=3)
    with pytest.raises(ValueError, match="member count"):
        wider.load_state_dict(state)


# -- full-run equivalence -----------------------------------------------------------


def _assert_same_run(trainer, history, reference_trainer, reference):
    """Histories and whole state trees equal, leaf for leaf."""

    def record_table(history):  # NaN-aware: wholly lost rounds have no loss
        return np.array([dataclasses.astuple(r) for r in history.records], dtype=float)

    assert np.array_equal(
        record_table(history), record_table(reference), equal_nan=True
    )
    assert history.total_elapsed_s == reference.total_elapsed_s
    assert history.medium_busy_s == reference.medium_busy_s
    assert dataclasses.asdict(history.communication) == dataclasses.asdict(
        reference.communication
    )
    state = flatten_state_tree(trainer.state_dict())
    expected = flatten_state_tree(reference_trainer.state_dict())
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        assert np.array_equal(state[key], value), key


def _assert_bank_matches_oracle(config, split, num_ues):
    """Fit on the bank and on the oracle; return the bank's trainer and
    history after asserting the two runs match bit for bit."""
    fleet_config = FleetConfig(num_ues=num_ues, mode="parallel_average")
    oracle = oracle_trainer(config, fleet_config)
    oracle_history = oracle.fit(split.train, split.validation, max_rounds=MAX_ROUNDS)
    trainer = FleetTrainer(config, fleet_config)
    history = trainer.fit(split.train, split.validation, max_rounds=MAX_ROUNDS)
    assert isinstance(trainer.fleet.bank, StackedUEBank)
    _assert_same_run(trainer, history, oracle, oracle_history)
    return trainer, history


def test_bank_and_member_loop_oracle_train_identically(
    config, small_split, smoke_scale, smoke_split, monkeypatch
):
    # One worker, so the bank runs one pass per batch size (the pass-count
    # assertion below); tests/fleet/test_sharded_bank.py runs it sharded.
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    # Every codec family: stateless, vectorized quantizer, stateful top-k.
    for codec in ("identity", "uint8", "topk"):
        codec_config = dataclasses.replace(
            config, model=dataclasses.replace(config.model, codec=codec)
        )
        trainer, _ = _assert_bank_matches_oracle(codec_config, small_split, 3)
        assert len(trainer.fleet.bank._passes) == 1  # equal shards: one pass

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
    _, history = _assert_bank_matches_oracle(lossy, smoke_split, 3)
    assert sum(record.lost_steps for record in history.records) > 0
    assert history.communication.uplink_failures > 0
    assert history.communication.downlink_failures > 0


def test_uneven_shards_run_one_stacked_pass_per_batch_size(
    config, small_split, monkeypatch
):
    """190 windows over 12 members give batches of 15 and 16: two passes
    on one worker."""
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    batch_size = config.training.batch_size
    shards = shard_indices(len(small_split.train), 12)
    sizes = [min(batch_size, len(shard)) for shard in shards]
    assert set(sizes) == {15, 16}
    trainer, _ = _assert_bank_matches_oracle(config, small_split, 12)
    passes = trainer.fleet.bank._passes
    assert len(passes) == 2
    for selector, _ in passes:
        assert len({sizes[member] for member in selector}) == 1


def test_batched_resume_is_bit_identical(config, small_split, tmp_path):
    """Interrupt an N=8 run mid-way; the resume must lose nothing."""
    fleet_config = FleetConfig(num_ues=8, mode="parallel_average")
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


@pytest.mark.parametrize("writer", ["oracle", "bank"])
def test_checkpoints_interchange_between_bank_and_oracle(
    writer, config, small_split, tmp_path
):
    """A checkpoint written on one side resumes on the other, bit for bit."""
    fleet_config = FleetConfig(num_ues=3, mode="parallel_average")
    build = {"oracle": oracle_trainer, "bank": FleetTrainer}
    reader = "bank" if writer == "oracle" else "oracle"
    reference_trainer = FleetTrainer(config, fleet_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )

    path = tmp_path / f"{writer}-written.npz"
    build[writer](config, fleet_config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=1,
        checkpoint_path=path,
    )
    resumed_trainer = build[reader](config, fleet_config)
    resumed = resumed_trainer.fit(
        small_split.train,
        small_split.validation,
        max_rounds=MAX_ROUNDS,
        resume_from=path,
    )
    _assert_same_run(resumed_trainer, resumed, reference_trainer, reference)
