"""Interrupt/resume tests for ``FleetTrainer.fit`` in both fleet modes."""
import dataclasses

import numpy as np
import pytest

from repro.fleet import FLEET_MODES, FleetConfig, FleetTrainer
from repro.nn.serialization import flatten_state_tree
from repro.split import Checkpoint, ExperimentConfig, TrainingConfig

MAX_ROUNDS = 3


@pytest.fixture()
def config(tiny_model_config):
    return ExperimentConfig(
        model=tiny_model_config,
        training=TrainingConfig(
            batch_size=16, max_epochs=MAX_ROUNDS, steps_per_epoch=2, seed=5
        ),
    )


def records_of(history):
    return [dataclasses.asdict(record) for record in history.records]


def fleet_weights(trainer):
    state = {f"bs.{k}": v for k, v in trainer.fleet.bs.get_weights().items()}
    for member in trainer.fleet.members:
        state.update(
            {f"ue{member.index}.{k}": v for k, v in member.ue.get_weights().items()}
        )
    return state


@pytest.mark.parametrize("mode", FLEET_MODES)
def test_n2_resume_is_bit_identical(mode, config, small_split, tmp_path):
    fleet_config = FleetConfig(num_ues=2, mode=mode)
    reference_trainer = FleetTrainer(config, fleet_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )
    assert len(reference.records) == MAX_ROUNDS
    reference_weights = fleet_weights(reference_trainer)

    for stop_after in range(1, MAX_ROUNDS):
        path = tmp_path / f"{mode}-{stop_after}.npz"
        FleetTrainer(config, fleet_config).fit(
            small_split.train,
            small_split.validation,
            max_rounds=stop_after,
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
        assert resumed.medium_busy_s == reference.medium_busy_s
        assert dataclasses.asdict(resumed.communication) == dataclasses.asdict(
            reference.communication
        )
        assert [dataclasses.asdict(stats) for stats in resumed.per_ue_communication] == [
            dataclasses.asdict(stats) for stats in reference.per_ue_communication
        ]
        restored = fleet_weights(resumed_trainer)
        for key, value in reference_weights.items():
            assert np.array_equal(value, restored[key]), (mode, stop_after, key)


@pytest.mark.parametrize("mode", FLEET_MODES)
def test_n2_topk_codec_resume_is_bit_identical(mode, config, small_split, tmp_path):
    """Per-member top-k error-feedback residuals survive a fleet checkpoint."""
    topk_config = dataclasses.replace(
        config,
        model=dataclasses.replace(
            config.model, codec="topk", codec_topk_fraction=0.25
        ),
    )
    fleet_config = FleetConfig(num_ues=2, mode=mode)
    reference_trainer = FleetTrainer(topk_config, fleet_config)
    reference = reference_trainer.fit(
        small_split.train, small_split.validation, max_rounds=MAX_ROUNDS
    )
    reference_weights = fleet_weights(reference_trainer)

    stop_after = MAX_ROUNDS - 1
    path = tmp_path / f"topk-{mode}.npz"
    FleetTrainer(topk_config, fleet_config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=stop_after,
        checkpoint_path=path,
    )
    resumed_trainer = FleetTrainer(topk_config, fleet_config)
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
        assert np.array_equal(value, restored[key]), (mode, key)
    for ref_member, res_member in zip(
        reference_trainer.fleet.members, resumed_trainer.fleet.members
    ):
        ref_state = ref_member.protocol.codec.state_dict()["residuals"]
        res_state = res_member.protocol.codec.state_dict()["residuals"]
        assert ref_state, (mode, ref_member.index)  # residuals did accumulate
        assert set(ref_state) == set(res_state)
        for stream, residual in ref_state.items():
            assert np.array_equal(residual, res_state[stream]), (
                mode,
                ref_member.index,
                stream,
            )


def test_rotation_checkpoint_preserves_weight_holder(config, small_split, tmp_path):
    fleet_config = FleetConfig(num_ues=2, mode="rotation")
    path = tmp_path / "rotation.npz"
    trainer = FleetTrainer(config, fleet_config)
    trainer.fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    holder = trainer.fleet.weight_holder
    assert holder == 1  # the round ended on the last member's turn
    restored = FleetTrainer(config, fleet_config)
    restored.load_state_dict(Checkpoint.load(path).state)
    assert restored.fleet.weight_holder == holder


def test_checkpoint_rejects_mismatched_fleet_shape(config, small_split, tmp_path):
    path = tmp_path / "n2.npz"
    FleetTrainer(config, FleetConfig(num_ues=2, mode="rotation")).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    with pytest.raises(ValueError, match="num_ues"):
        FleetTrainer(config, FleetConfig(num_ues=3, mode="rotation")).fit(
            small_split.train, small_split.validation, resume_from=path
        )
    with pytest.raises(ValueError, match="mode"):
        FleetTrainer(config, FleetConfig(num_ues=2, mode="parallel_average")).fit(
            small_split.train, small_split.validation, resume_from=path
        )


def test_split_checkpoint_rejected_by_fleet(config, small_split, tmp_path):
    """The single-UE trainer is a fleet of one; its checkpoint must not resume a
    larger fleet."""
    from repro.split.trainer import SplitTrainer

    path = tmp_path / "split.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    with pytest.raises(ValueError, match="num_ues is 1, this trainer runs 2"):
        FleetTrainer(config, FleetConfig(num_ues=2, mode="rotation")).fit(
            small_split.train, small_split.validation, resume_from=path
        )


# -- mismatched checkpoints fail before anything loads -------------------------------


def _round_one_checkpoint(config, small_split, tmp_path):
    path = tmp_path / "n2.npz"
    FleetTrainer(config, FleetConfig(num_ues=2, mode="parallel_average")).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    return Checkpoint.load(path)


def _assert_refused_untouched(trainer, checkpoint, small_split, message):
    """The resume raises one "mismatched checkpoint" error naming the first
    bad key, and the trainer's state tree is exactly as before."""
    before = flatten_state_tree(trainer.state_dict())
    with pytest.raises(ValueError, match=rf"^mismatched checkpoint: {message}"):
        trainer.fit(small_split.train, small_split.validation, resume_from=checkpoint)
    after = flatten_state_tree(trainer.state_dict())
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


def test_checkpoint_with_a_dropped_key_is_refused_before_any_load(
    config, small_split, tmp_path
):
    checkpoint = _round_one_checkpoint(config, small_split, tmp_path)
    # The last member's UE loads after the BS and member 0.
    del checkpoint.state["fleet"]["members"]["1"]["protocol"]["ue"]["model"]["2.weight"]
    trainer = FleetTrainer(config, FleetConfig(num_ues=2, mode="parallel_average"))
    _assert_refused_untouched(
        trainer,
        checkpoint,
        small_split,
        "'fleet//members//1//protocol//ue//model//2.weight' is missing",
    )


def test_checkpoint_with_a_wrong_shape_is_refused_before_any_load(
    config, small_split, tmp_path
):
    checkpoint = _round_one_checkpoint(config, small_split, tmp_path)
    slots = checkpoint.state["fleet"]["members"]["1"]["protocol"]["ue"]["optimizer"]
    slots["slot/second_moment/0"] = np.zeros((3, 1, 3, 3))
    trainer = FleetTrainer(config, FleetConfig(num_ues=2, mode="parallel_average"))
    _assert_refused_untouched(
        trainer,
        checkpoint,
        small_split,
        r"'fleet//members//1//protocol//ue//optimizer//slot/second_moment/0' "
        r"holds shape \(3, 1, 3, 3\) <f8, this trainer expects shape \(2, 1, 3, 3\)",
    )


def test_checkpoint_of_another_configuration_is_refused_before_any_load(
    config, small_split, tmp_path
):
    """Wider UE CNNs: the scheme label and fleet shape agree, the layout does
    not."""
    wider = dataclasses.replace(
        config, model=dataclasses.replace(config.model, cnn_channels=(3,))
    )
    assert wider.model.describe() == config.model.describe()
    checkpoint = _round_one_checkpoint(wider, small_split, tmp_path)
    trainer = FleetTrainer(config, FleetConfig(num_ues=2, mode="parallel_average"))
    _assert_refused_untouched(
        trainer,
        checkpoint,
        small_split,
        "'fleet//members//0//protocol//ue//model//0.bias' holds shape",
    )
