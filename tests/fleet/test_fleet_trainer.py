"""Tests for ``UEFleet`` / ``FleetTrainer``.

The anchor of the engine: ``SplitTrainer``, the rotation fleet of one, must
reproduce the paper's single-UE loop *draw for draw* — identical elapsed
times, losses, RMSE trajectory and communication statistics.  The loop is
restated below as a test-side oracle that drives the protocol directly.
"""
import dataclasses

import numpy as np
import pytest

from repro.channel import PAPER_CHANNEL_PARAMS
from repro.channel.params import LinkParams
from repro.fleet import FleetConfig, FleetTrainer, UEFleet, shard_indices
from repro.nn.metrics import root_mean_squared_error
from repro.scenarios import fleet_channel_params, fleet_placements
from repro.split import ExperimentConfig, PowerNormalizer, SplitTrainingProtocol
from repro.split.trainer import SplitTrainer
from repro.utils.seeding import as_generator


@pytest.fixture(scope="module")
def smoke_config(smoke_scale):
    return ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )


def lossy_config(smoke_scale, **training):
    """Unpooled payloads over a 32 m link with no retransmissions.

    The uplink per-slot success probability drops to ~0.5 for the smoke
    payload and the weakened downlink to ~0.4, so both directions fail
    regularly: the gated-downlink path and wholly lost steps are exercised.
    """
    return ExperimentConfig(
        model=smoke_scale.base_model_config().with_pooling(1),
        training=dataclasses.replace(
            smoke_scale.training_config(), max_retransmissions=0, **training
        ),
        channel=dataclasses.replace(
            PAPER_CHANNEL_PARAMS,
            distance_m=32.0,
            downlink=LinkParams(transmit_power_dbm=-10.0, bandwidth_hz=100e6),
        ),
    )


# -- the N=1 correctness anchor -----------------------------------------------------


def single_ue_loop(config, train, validation):
    """The paper's single-UE loop, restated: one protocol, one batch stream
    seeded by the training seed, the simulated clock advanced per step."""
    training, model = config.training, config.model
    protocol = SplitTrainingProtocol(config)
    rng = as_generator(training.seed)
    normalizer = PowerNormalizer.fit(train.power_sequences, train.targets)

    def inputs(sequences):
        images = sequences.image_sequences if model.use_image else None
        powers = normalizer.normalize(sequences.power_sequences) if model.use_rf else None
        return images, powers

    images, powers = inputs(train)
    targets = normalizer.normalize(train.targets)
    batch_size = min(training.batch_size, len(train))
    records, elapsed_s = [], 0.0
    for epoch in range(1, training.max_epochs + 1):
        losses, lost = [], 0
        for _ in range(training.steps_per_epoch):
            batch = rng.choice(len(train), size=batch_size, replace=False)
            result = protocol.training_step(
                None if images is None else images[batch],
                None if powers is None else powers[batch],
                targets[batch],
            )
            elapsed_s += result.elapsed_s
            if result.updated:
                losses.append(result.loss)
            else:
                lost += 1
        predictions = normalizer.denormalize(protocol.predict(*inputs(validation)))
        rmse = root_mean_squared_error(predictions, validation.targets)
        loss = float(np.mean(losses)) if losses else float("nan")
        records.append((epoch, elapsed_s, loss, rmse, training.steps_per_epoch, lost))
        if rmse <= training.target_rmse_db:
            break
    return records, elapsed_s, protocol.arq.statistics if protocol.arq else None


@pytest.mark.parametrize("scheme", ["img+rf", "rf-only", "lossy"])
def test_split_trainer_matches_single_ue_loop_oracle(smoke_scale, smoke_split, scheme):
    # Six epochs of five steps: enough that summing each epoch's steps
    # before adding them to the clock rounds differently from adding step by
    # step.
    training = dict(max_epochs=6, steps_per_epoch=5)
    if scheme == "lossy":
        config = lossy_config(smoke_scale, **training)
    else:
        model = smoke_scale.base_model_config()
        if scheme == "rf-only":
            model = dataclasses.replace(model, use_image=False)
        config = ExperimentConfig.for_scenario(
            smoke_scale.scenario,
            model=model,
            training=dataclasses.replace(smoke_scale.training_config(), **training),
        )
    records, elapsed_s, communication = single_ue_loop(
        config, smoke_split.train, smoke_split.validation
    )
    history = SplitTrainer(config).fit(smoke_split.train, smoke_split.validation)

    def exact(rows):  # float.hex: bitwise, and NaN losses compare equal
        return [tuple(float(v).hex() for v in row) for row in rows]

    assert exact(
        (r.round, r.elapsed_s, r.train_loss, r.validation_rmse_db, r.steps, r.lost_steps)
        for r in history.records
    ) == exact(records)
    assert history.total_elapsed_s == elapsed_s
    if scheme == "rf-only":
        assert communication is None and history.communication is None
    else:
        assert dataclasses.asdict(history.communication) == dataclasses.asdict(
            communication
        )
    if scheme == "lossy":  # the link really loses steps, both directions
        assert sum(r.lost_steps for r in history.records) > 0
        assert communication.uplink_failures > 0
        assert communication.downlink_failures > 0


def test_single_ue_parallel_average_matches_single_trainer_rmse(
    smoke_config, smoke_split
):
    """N=1 parallel averaging is averaging over one client: same trajectory,
    and one accounting rule, so the same clock round by round.  Compute
    times of the size of the slots make any difference in the order the
    step's terms are added show in the last bits."""
    config = dataclasses.replace(
        smoke_config,
        training=dataclasses.replace(
            smoke_config.training, ue_compute_time_s=0.3, bs_compute_time_s=0.6
        ),
    )
    single = SplitTrainer(config).fit(smoke_split.train, smoke_split.validation)
    fleet = FleetTrainer(
        config, FleetConfig(num_ues=1, mode="parallel_average")
    ).fit(smoke_split.train, smoke_split.validation)
    assert np.array_equal(
        fleet.validation_rmse_curve_db, single.validation_rmse_curve_db
    )
    assert [elapsed.hex() for elapsed in fleet.elapsed_times_s] == [
        elapsed.hex() for elapsed in single.elapsed_times_s
    ]
    assert fleet.total_elapsed_s == single.total_elapsed_s


def test_single_ue_parallel_average_matches_trainer_on_lossy_link(
    smoke_scale, smoke_split
):
    """Elapsed-time accounting stays mode-consistent when steps are lost.

    With a retransmission cap and a heavy payload some exchanges fail; lost
    steps must charge the same compute + communication time in both the
    single-UE trainer and an N=1 parallel-average fleet (the BS compute slot
    is charged on lost steps too).
    """
    config = lossy_config(smoke_scale)
    single = SplitTrainer(config).fit(
        smoke_split.train, smoke_split.validation, max_rounds=4
    )
    fleet = FleetTrainer(
        config, FleetConfig(num_ues=1, mode="parallel_average")
    ).fit(smoke_split.train, smoke_split.validation, max_rounds=4)
    assert sum(r.lost_steps for r in single.records) > 0  # the link is lossy
    assert single.communication.uplink_failures > 0
    assert single.communication.downlink_failures > 0  # ... both directions
    assert fleet.total_elapsed_s == single.total_elapsed_s
    assert [r.lost_steps for r in fleet.records] == [
        r.lost_steps for r in single.records
    ]
    assert np.array_equal(
        fleet.validation_rmse_curve_db, single.validation_rmse_curve_db
    )
    assert fleet.communication.downlink_failures == (
        single.communication.downlink_failures
    )


# -- determinism --------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["rotation", "parallel_average"])
def test_same_seed_same_trajectory(smoke_config, smoke_split, mode):
    def run():
        return FleetTrainer(
            smoke_config, FleetConfig(num_ues=2, mode=mode)
        ).fit(smoke_split.train, smoke_split.validation, max_rounds=2)

    first, second = run(), run()
    assert np.array_equal(
        first.validation_rmse_curve_db, second.validation_rmse_curve_db
    )
    assert np.array_equal(first.elapsed_times_s, second.elapsed_times_s)
    assert first.medium_busy_s == second.medium_busy_s
    assert first.communication.steps == second.communication.steps
    assert first.communication.slots_mean == second.communication.slots_mean


# -- fleet construction -------------------------------------------------------------


def test_fleet_requires_image_branch(smoke_config):
    rf_only = dataclasses.replace(
        smoke_config, model=dataclasses.replace(smoke_config.model, use_image=False)
    )
    with pytest.raises(ValueError, match="RF-only"):
        UEFleet(rf_only, FleetConfig(num_ues=2))


def test_rf_only_trains_only_as_the_single_ue_rotation_fleet(smoke_config, smoke_split):
    rf_only = dataclasses.replace(
        smoke_config, model=dataclasses.replace(smoke_config.model, use_image=False)
    )
    history = FleetTrainer(rf_only, FleetConfig(num_ues=1, mode="rotation")).fit(
        smoke_split.train, smoke_split.validation
    )
    assert history.records and history.communication is None
    assert history.per_ue_communication == []
    assert all(r.medium_busy_s == 0.0 and r.lost_steps == 0 for r in history.records)
    for shape in (
        FleetConfig(num_ues=2, mode="rotation"),
        FleetConfig(num_ues=1, mode="parallel_average"),
    ):
        with pytest.raises(ValueError, match="RF-only baseline has no UE-side model"):
            FleetTrainer(rf_only, shape)


def test_fleet_member_zero_keeps_nominal_channel(smoke_config):
    fleet = UEFleet(smoke_config, FleetConfig(num_ues=4))
    assert fleet.members[0].channel == smoke_config.channel
    jittered = {member.channel.distance_m for member in fleet.members[1:]}
    assert len(jittered) == 3  # distinct placements
    assert all(
        distance != smoke_config.channel.distance_m for distance in jittered
    )


def test_fleet_members_start_from_identical_weights(smoke_config):
    fleet = UEFleet(smoke_config, FleetConfig(num_ues=3))
    reference = fleet.members[0].ue.cnn.state_dict()
    for member in fleet.members[1:]:
        state = member.ue.cnn.state_dict()
        assert all(np.array_equal(reference[key], state[key]) for key in reference)


def test_fleet_shares_one_bs(smoke_config):
    fleet = UEFleet(smoke_config, FleetConfig(num_ues=3))
    assert all(
        member.protocol.bs is fleet.bs for member in fleet.members
    )
    # ... but UEs and channels are private.
    ues = {id(member.ue) for member in fleet.members}
    sessions = {id(member.arq) for member in fleet.members}
    assert len(ues) == 3 and len(sessions) == 3


def test_hand_off_moves_weights(smoke_config):
    fleet = UEFleet(smoke_config, FleetConfig(num_ues=2))
    # Perturb member 0's weights (its row of the bank), then hand off to
    # member 1.
    next(fleet.members[0].ue.cnn.parameters()).value[...] += 1.0
    state = fleet.members[0].ue.cnn.state_dict()
    fleet.hand_off_to(1)
    assert fleet.weight_holder == 1
    received = fleet.members[1].ue.cnn.state_dict()
    assert all(np.array_equal(received[key], state[key]) for key in state)


def test_average_ue_weights_broadcasts_mean(smoke_config):
    fleet = UEFleet(smoke_config, FleetConfig(num_ues=2))
    state_a = fleet.members[0].ue.cnn.state_dict()
    fleet.bank.scatter([weight + 2.0 for weight in fleet.bank.weights(0)], [1])
    fleet.average_ue_weights()
    for member in fleet.members:
        averaged = member.ue.cnn.state_dict()
        for key in state_a:
            assert np.allclose(averaged[key], state_a[key] + 1.0)


def test_parallel_average_leaves_members_identical(smoke_config, smoke_split):
    trainer = FleetTrainer(
        smoke_config, FleetConfig(num_ues=3, mode="parallel_average")
    )
    trainer.fit(smoke_split.train, smoke_split.validation, max_rounds=1)
    states = [member.ue.cnn.state_dict() for member in trainer.fleet]
    for state in states[1:]:
        assert all(
            np.array_equal(states[0][key], state[key]) for key in states[0]
        )


# -- medium accounting --------------------------------------------------------------


def test_parallel_average_round_is_faster_than_rotation(
    smoke_config, smoke_split
):
    """N batches per round cost less wall-clock when compute is amortized."""
    rotation = FleetTrainer(
        smoke_config, FleetConfig(num_ues=4, mode="rotation")
    ).fit(smoke_split.train, smoke_split.validation, max_rounds=2)
    parallel = FleetTrainer(
        smoke_config, FleetConfig(num_ues=4, mode="parallel_average")
    ).fit(smoke_split.train, smoke_split.validation, max_rounds=2)
    assert parallel.records[0].steps == rotation.records[0].steps
    assert (
        parallel.records[0].round_duration_s < rotation.records[0].round_duration_s
    )
    # ... precisely because the medium is busier.
    assert parallel.records[0].medium_occupancy > rotation.records[0].medium_occupancy


def test_medium_occupancy_bounds(smoke_config, smoke_split):
    history = FleetTrainer(
        smoke_config, FleetConfig(num_ues=2, mode="parallel_average")
    ).fit(smoke_split.train, smoke_split.validation, max_rounds=2)
    assert 0.0 < history.medium_occupancy < 1.0
    for record in history.records:
        assert 0.0 < record.medium_occupancy < 1.0
        assert record.medium_busy_s < record.round_duration_s


def test_per_ue_statistics_merge_to_fleet_statistics(smoke_config, smoke_split):
    history = FleetTrainer(
        smoke_config, FleetConfig(num_ues=3, mode="parallel_average")
    ).fit(smoke_split.train, smoke_split.validation, max_rounds=2)
    assert len(history.per_ue_communication) == 3
    total_steps = sum(stats.steps for stats in history.per_ue_communication)
    assert history.communication.steps == total_steps
    total_slots = sum(
        stats.uplink_slots + stats.downlink_slots
        for stats in history.per_ue_communication
    )
    assert (
        history.communication.uplink_slots + history.communication.downlink_slots
        == total_slots
    )


# -- sharding and placement ---------------------------------------------------------


def test_shard_indices_partition():
    shards = shard_indices(10, 3)
    combined = np.sort(np.concatenate(shards))
    assert np.array_equal(combined, np.arange(10))
    assert [len(shard) for shard in shards] == [4, 3, 3]
    assert np.array_equal(shard_indices(7, 1)[0], np.arange(7))
    with pytest.raises(ValueError):
        shard_indices(2, 3)


def test_fleet_placements_deterministic_and_anchored():
    first = fleet_placements("paper_baseline", 4, seed=5)
    second = fleet_placements("paper_baseline", 4, seed=5)
    assert first == second
    assert first[0] == 4.0  # nominal paper distance, never jittered
    different = fleet_placements("paper_baseline", 4, seed=6)
    assert different[1:] != first[1:]
    assert fleet_placements("paper_baseline", 1, seed=5) == (4.0,)


def test_fleet_channel_params_only_distance_changes():
    channels = fleet_channel_params("paper_baseline", 3, seed=0)
    nominal = channels[0]
    for channel in channels[1:]:
        assert channel.distance_m != nominal.distance_m
        assert channel.uplink == nominal.uplink
        assert channel.downlink == nominal.downlink
        assert channel.slot_duration_s == nominal.slot_duration_s


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(num_ues=0)
    with pytest.raises(ValueError):
        FleetConfig(mode="gossip")
    with pytest.raises(ValueError):
        FleetConfig(scheduler="fifo")
    with pytest.raises(ValueError):
        FleetConfig(placement_jitter=1.5)
