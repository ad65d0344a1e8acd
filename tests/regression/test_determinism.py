"""Determinism guarantees: seed -> bit-identical datasets and training runs.

The sweep orchestrator aggregates metrics across seeds and caches datasets by
configuration hash; both are only sound if a seed fully determines the
simulated data and the training trajectory within a process.
"""
import numpy as np

from repro.dataset.generator import MmWaveDepthDatasetGenerator
from repro.experiments import ExperimentScale, generate_dataset, prepare_split
from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer
from repro.utils.seeding import as_generator, spawn_generators


def test_identical_seed_identical_dataset_across_scenarios():
    for scenario in ("paper_baseline", "dense_crowd"):
        scale = ExperimentScale.smoke().with_scenario(scenario).with_seed(13)
        first = MmWaveDepthDatasetGenerator(scale.dataset_config()).generate()
        second = MmWaveDepthDatasetGenerator(scale.dataset_config()).generate()
        assert np.array_equal(first.images, second.images)
        assert np.array_equal(first.powers_dbm, second.powers_dbm)
        assert np.array_equal(
            first.line_of_sight_blocked, second.line_of_sight_blocked
        )


def test_different_scenarios_same_seed_differ():
    scale = ExperimentScale.smoke().with_seed(13)
    baseline = generate_dataset(scale)
    dense = generate_dataset(scale.with_scenario("dense_crowd"))
    assert not np.array_equal(baseline.powers_dbm, dense.powers_dbm)


def test_identical_training_trajectory(smoke_scale, smoke_split, tiny_model_config):
    histories = []
    for _ in range(2):
        trainer = SplitTrainer(
            ExperimentConfig(
                model=tiny_model_config,
                training=smoke_scale.training_config(),
            )
        )
        histories.append(trainer.fit(smoke_split.train, smoke_split.validation))
    first, second = histories
    assert len(first.records) == len(second.records)
    assert np.array_equal(
        first.validation_rmse_curve_db, second.validation_rmse_curve_db
    )
    assert np.array_equal(first.elapsed_times_s, second.elapsed_times_s)
    assert [r.train_loss for r in first.records] == [
        r.train_loss for r in second.records
    ]


def test_prepare_split_is_deterministic(smoke_scale, smoke_dataset):
    first = prepare_split(smoke_scale, smoke_dataset)
    second = prepare_split(smoke_scale, smoke_dataset)
    assert np.array_equal(first.validation.targets, second.validation.targets)
    assert np.array_equal(
        first.train.image_sequences, second.train.image_sequences
    )


# -- spawn_generators stream independence -------------------------------------------


def test_spawn_generators_reproducible():
    first = [g.normal(size=8) for g in spawn_generators(99, 3)]
    second = [g.normal(size=8) for g in spawn_generators(99, 3)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_spawn_generators_streams_are_distinct():
    streams = [g.normal(size=256) for g in spawn_generators(0, 4)]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.allclose(streams[i], streams[j])
    # The children also differ from the root generator's own stream.
    root_stream = as_generator(0).normal(size=256)
    for stream in streams:
        assert not np.allclose(stream, root_stream)


def test_spawn_generators_streams_are_uncorrelated():
    a, b = (g.normal(size=20_000) for g in spawn_generators(7, 2))
    correlation = float(np.corrcoef(a, b)[0, 1])
    assert abs(correlation) < 0.03
