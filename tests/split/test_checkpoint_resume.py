"""Interrupt/resume tests for ``SplitTrainer.fit`` (bit-identical resume)."""
import dataclasses

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetTrainer
from repro.split import Checkpoint, ExperimentConfig, TrainingConfig
from repro.split.trainer import SplitTrainer

MAX_EPOCHS = 4


@pytest.fixture()
def config(tiny_model_config):
    return ExperimentConfig(
        model=tiny_model_config,
        training=TrainingConfig(
            batch_size=16, max_epochs=MAX_EPOCHS, steps_per_epoch=2, seed=5
        ),
    )


def records_of(history):
    return [dataclasses.asdict(record) for record in history.records]


def weights_of(trainer):
    """The BS state and the UE bank's state, by key."""
    fleet = trainer.state_dict()["fleet"]
    state = {f"bs.{k}": v for k, v in fleet["bs"]["model"].items()}
    state.update({f"ue.{k}": v for k, v in fleet.get("ue", {}).items()})
    return state


def test_resume_at_every_epoch_is_bit_identical(config, small_split, tmp_path):
    """Interrupting after each epoch and resuming reproduces the full run."""
    reference_trainer = SplitTrainer(config)
    reference = reference_trainer.fit(small_split.train, small_split.validation)
    assert len(reference.records) == MAX_EPOCHS
    reference_weights = weights_of(reference_trainer)

    for stop_after in range(1, MAX_EPOCHS):
        path = tmp_path / f"stop{stop_after}.npz"
        SplitTrainer(config).fit(
            small_split.train,
            small_split.validation,
            max_rounds=stop_after,
            checkpoint_path=path,
        )
        resumed_trainer = SplitTrainer(config)
        resumed = resumed_trainer.fit(
            small_split.train, small_split.validation, resume_from=path
        )
        assert records_of(resumed) == records_of(reference)
        assert resumed.total_elapsed_s == reference.total_elapsed_s
        assert dataclasses.asdict(resumed.communication) == dataclasses.asdict(
            reference.communication
        )
        restored = weights_of(resumed_trainer)
        for key, value in reference_weights.items():
            assert np.array_equal(value, restored[key]), (stop_after, key)


def test_resume_accepts_checkpoint_instance(config, small_split, tmp_path):
    path = tmp_path / "ckpt.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=2, checkpoint_path=path
    )
    checkpoint = Checkpoint.load(path)
    resumed = SplitTrainer(config).fit(
        small_split.train, small_split.validation, resume_from=checkpoint
    )
    assert len(resumed.records) == MAX_EPOCHS


def test_completed_checkpoint_returns_history_without_training(
    config, small_split, tmp_path
):
    path = tmp_path / "full.npz"
    full = SplitTrainer(config).fit(
        small_split.train, small_split.validation, checkpoint_path=path
    )
    trainer = SplitTrainer(config)
    batch_rng = trainer.fleet.members[0].batch_rng
    batch_rng_before = batch_rng.bit_generator.state

    again = trainer.fit(
        small_split.train, small_split.validation, resume_from=path
    )
    assert records_of(again) == records_of(full)
    # The restored batch stream advanced past the whole run, proving the
    # trainer took the restore path rather than redrawing from scratch.
    assert batch_rng.bit_generator.state != batch_rng_before
    # The restored trainer evaluates (weights + normalizer are in place).
    assert np.isfinite(trainer.evaluate(small_split.validation))


def test_resume_with_topk_codec_is_bit_identical(config, small_split, tmp_path):
    """The top-k error-feedback residuals ride in the checkpoint: a resumed
    run sees the same compensated tensors as the uninterrupted one."""
    topk = dataclasses.replace(
        config,
        model=dataclasses.replace(
            config.model, codec="topk", codec_topk_fraction=0.25
        ),
    )
    reference_trainer = SplitTrainer(topk)
    reference = reference_trainer.fit(small_split.train, small_split.validation)
    reference_weights = weights_of(reference_trainer)
    # The residual buffers are live run state by the end of the reference run.
    assert reference_trainer.protocol.codec.state_dict()["residuals"]

    for stop_after in range(1, MAX_EPOCHS):
        path = tmp_path / f"topk{stop_after}.npz"
        SplitTrainer(topk).fit(
            small_split.train,
            small_split.validation,
            max_rounds=stop_after,
            checkpoint_path=path,
        )
        resumed_trainer = SplitTrainer(topk)
        resumed = resumed_trainer.fit(
            small_split.train, small_split.validation, resume_from=path
        )
        assert records_of(resumed) == records_of(reference)
        assert resumed.total_elapsed_s == reference.total_elapsed_s
        restored = weights_of(resumed_trainer)
        for key, value in reference_weights.items():
            assert np.array_equal(value, restored[key]), (stop_after, key)
        reference_residuals = reference_trainer.protocol.codec.state_dict()
        resumed_residuals = resumed_trainer.protocol.codec.state_dict()
        for stream, residual in reference_residuals["residuals"].items():
            assert np.array_equal(
                residual, resumed_residuals["residuals"][stream]
            ), (stop_after, stream)


def test_checkpoint_rejects_mismatched_codec(config, small_split, tmp_path):
    path = tmp_path / "identity.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    topk = dataclasses.replace(
        config, model=dataclasses.replace(config.model, codec="topk")
    )
    with pytest.raises(ValueError, match="scheme"):
        SplitTrainer(topk).fit(
            small_split.train, small_split.validation, resume_from=path
        )


def test_rf_only_trainer_checkpoints_without_arq(config, small_split, tmp_path):
    rf_only = dataclasses.replace(
        config, model=dataclasses.replace(config.model, use_image=False)
    )
    path = tmp_path / "rf.npz"
    SplitTrainer(rf_only).fit(
        small_split.train, small_split.validation, max_rounds=2, checkpoint_path=path
    )
    reference = SplitTrainer(rf_only).fit(small_split.train, small_split.validation)
    resumed = SplitTrainer(rf_only).fit(
        small_split.train, small_split.validation, resume_from=path
    )
    assert records_of(resumed) == records_of(reference)
    assert resumed.communication is None


def test_checkpoint_rejects_mismatched_scheme(config, small_split, tmp_path):
    path = tmp_path / "ckpt.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    other = dataclasses.replace(
        config, model=dataclasses.replace(config.model, use_rf=False)
    )
    with pytest.raises(ValueError, match="scheme"):
        SplitTrainer(other).fit(
            small_split.train, small_split.validation, resume_from=path
        )


def test_checkpoint_rejects_wrong_kind(config, small_split, tmp_path):
    """A checkpoint of another kind, such as a ``"split"`` one from before the
    single-UE trainer became a fleet of one, fails loudly on its kind rather
    than on a missing state key."""
    path = tmp_path / "ckpt.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    forged = tmp_path / "split.npz"
    dataclasses.replace(Checkpoint.load(path), kind="split").save(forged)
    for trainer in (
        SplitTrainer(config),
        FleetTrainer(config, FleetConfig(num_ues=2, mode="rotation")),
    ):
        with pytest.raises(
            ValueError, match="cannot resume a 'fleet' trainer from a 'split' checkpoint"
        ):
            trainer.fit(small_split.train, small_split.validation, resume_from=forged)


def test_checkpoint_every_controls_cadence(config, small_split, tmp_path):
    path = tmp_path / "sparse.npz"
    SplitTrainer(config).fit(
        small_split.train,
        small_split.validation,
        max_rounds=3,
        checkpoint_path=path,
        checkpoint_every=2,
    )
    # Last write happens at the final epoch regardless of cadence.
    assert Checkpoint.load(path).progress == 3
    with pytest.raises(ValueError, match="checkpoint_every"):
        SplitTrainer(config).fit(
            small_split.train, small_split.validation, checkpoint_every=0
        )


def test_missing_checkpoint_file_raises(config, small_split, tmp_path):
    with pytest.raises(FileNotFoundError):
        SplitTrainer(config).fit(
            small_split.train,
            small_split.validation,
            resume_from=tmp_path / "missing.npz",
        )
