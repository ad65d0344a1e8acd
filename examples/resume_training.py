"""Checkpoint, kill and resume a split-learning run — bit-identically.

Every trainer in the library persists its complete run state at epoch
granularity: model weights on both sides of the cut layer, both Adam
optimizers (moments + step counts), the minibatch-sampling RNG stream, the
ARQ sessions' fading RNG streams and aggregate statistics, the fitted power
normalizer, and the learning curve so far.  Resuming from a checkpoint draws
exactly the random values the uninterrupted run would have drawn, so the
resulting history and final weights are *bit-identical* to never having
stopped.

This script

1. trains a reference run to completion,
2. trains a second run that is "killed" after a few epochs (simulated by a
   small epoch budget) while writing a checkpoint file,
3. resumes a third, fresh trainer from that checkpoint, and
4. verifies the resumed trajectory and weights equal the reference exactly.

It also shows the sweep-level counterpart: re-running an interrupted sweep
with ``resume=True`` skips completed cells (see
``python -m repro.experiments.sweep --help`` for the CLI flags).

Run with:  python examples/resume_training.py
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.experiments import ExperimentScale, prepare_split
from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer


def make_trainer(scale: ExperimentScale) -> SplitTrainer:
    return SplitTrainer(
        ExperimentConfig.for_scenario(
            scale.scenario,
            model=scale.base_model_config(),
            training=scale.training_config(),
        )
    )


def final_weights(trainer: SplitTrainer) -> dict:
    """The BS model's weights and the UE bank's weight stacks, by key."""
    fleet = trainer.state_dict()["fleet"]
    weights = {f"bs.{key}": value for key, value in fleet["bs"]["model"].items()}
    for key, value in fleet["ue"].items():
        if key.startswith("values/"):
            weights[f"ue.{key}"] = value
    return weights


def main() -> None:
    scale = ExperimentScale.smoke()
    split = prepare_split(scale)
    budget = 4

    print("1) reference run (uninterrupted) ...")
    reference_trainer = make_trainer(scale)
    reference = reference_trainer.fit(
        split.train, split.validation, max_rounds=budget
    )
    for record in reference.records:
        print(
            f"   epoch {record.round}: val RMSE {record.validation_rmse_db:.3f} dB"
            f" @ {record.elapsed_s:.2f} s simulated"
        )

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "run.npz"

        print("\n2) interrupted run: killed after epoch 2, checkpoint on disk ...")
        make_trainer(scale).fit(
            split.train,
            split.validation,
            max_rounds=2,  # the "kill": the process dies after epoch 2
            checkpoint_path=checkpoint,
        )
        print(f"   checkpoint written to {checkpoint.name}")

        print("\n3) fresh process: resume from the checkpoint ...")
        resumed_trainer = make_trainer(scale)
        resumed = resumed_trainer.fit(
            split.train,
            split.validation,
            max_rounds=budget,
            resume_from=checkpoint,
        )
        for record in resumed.records[2:]:
            print(
                f"   epoch {record.round}: val RMSE "
                f"{record.validation_rmse_db:.3f} dB (resumed)"
            )

    print("\n4) verify bit-identical trajectories ...")
    curves_equal = np.array_equal(
        reference.validation_rmse_curve_db, resumed.validation_rmse_curve_db
    )
    resumed_weights = final_weights(resumed_trainer)
    weights_equal = all(
        np.array_equal(value, resumed_weights[key])
        for key, value in final_weights(reference_trainer).items()
    )
    print(f"   learning curves identical: {curves_equal}")
    print(f"   final weights identical:   {weights_equal}")
    assert curves_equal and weights_equal

    print(
        "\nSweep-level resume works the same way: run the sweep CLI with\n"
        "--output sweep.json --checkpoint-dir ckpts, kill it, and re-run with\n"
        "--resume: completed cells are skipped and in-flight training jobs\n"
        "continue from their last epoch checkpoint."
    )


if __name__ == "__main__":
    main()
