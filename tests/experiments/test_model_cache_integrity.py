"""Checkpoint versioning and unreadable trained-model cache entries.

A model-cache entry that cannot be loaded back whole is a miss: the job
retrains and atomically overwrites the entry.  An explicit ``resume_from``
of such a file still raises.  The checkpoint version is part of the cache
key, so a layout change never serves an entry written before it.
"""
import dataclasses

import pytest

from repro.experiments.model_cache import trained_model_fingerprint, trained_model_path
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.nn.serialization import atomic_savez, flatten_state_tree
from repro.split import Checkpoint, ExperimentConfig, checkpoint
from repro.split.trainer import SplitTrainer


def records_of(history):
    return [dataclasses.asdict(record) for record in history.records]


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def per_leaf_version_1(path):
    """Rewrite the checkpoint in the one-member-per-leaf layout of version 1."""
    stored = Checkpoint.load(path)
    atomic_savez(
        path,
        flatten_state_tree(
            {
                "checkpoint": {
                    "version": 1,
                    "kind": stored.kind,
                    "progress": stored.progress,
                    "elapsed_s": stored.elapsed_s,
                    "meta": stored.meta,
                },
                "history": stored.history,
                "state": stored.state,
            }
        ),
    )


def packed_version_2(path):
    """Rewrite the checkpoint's header as version 2, the packed layout that
    stored every member's UE state separately."""
    stored = Checkpoint.load(path)
    stored.version = 2
    stored.save(path)


@pytest.mark.parametrize(
    "damage", [truncate, flip_byte, per_leaf_version_1, packed_version_2]
)
def test_unreadable_model_cache_entry_is_a_miss(
    damage, smoke_scale, smoke_dataset, smoke_split, tmp_path
):
    options = PipelineOptions(model_cache_dir=str(tmp_path))

    def train():
        pipeline = ExperimentPipeline(
            smoke_scale, options, dataset=smoke_dataset, split=smoke_split
        )
        return pipeline.train(
            pipeline.split_job("anchor", smoke_scale.base_model_config())
        )

    fresh = train()
    path = trained_model_path(fresh.fingerprint, tmp_path)
    damage(path)
    with pytest.raises(ValueError, match=str(path)):
        Checkpoint.load(path)

    retrained = train()
    assert not retrained.cache_hit and not retrained.resumed
    assert records_of(retrained.history) == records_of(fresh.history)
    # The entry was overwritten whole: it loads, the next job hits, and no
    # temporary file is left beside it.
    Checkpoint.load(path)
    hit = train()
    assert hit.cache_hit
    assert records_of(hit.history) == records_of(fresh.history)
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


def test_explicit_resume_from_an_unreadable_checkpoint_raises(
    tiny_experiment_config, small_split, tmp_path
):
    config = tiny_experiment_config
    path = tmp_path / "run.npz"
    SplitTrainer(config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    truncate(path)
    with pytest.raises(ValueError, match="unreadable state-tree archive"):
        SplitTrainer(config).fit(
            small_split.train, small_split.validation, resume_from=path
        )


def test_explicit_resume_from_a_version_2_checkpoint_raises(
    tiny_experiment_config, small_split, tmp_path
):
    path = tmp_path / "run.npz"
    SplitTrainer(tiny_experiment_config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    packed_version_2(path)
    with pytest.raises(ValueError, match=r"checkpoint version 2 unsupported"):
        SplitTrainer(tiny_experiment_config).fit(
            small_split.train, small_split.validation, resume_from=path
        )


def test_version_1_checkpoint_raises_a_clear_error(
    tiny_experiment_config, small_split, tmp_path
):
    path = tmp_path / "run.npz"
    SplitTrainer(tiny_experiment_config).fit(
        small_split.train, small_split.validation, max_rounds=1, checkpoint_path=path
    )
    per_leaf_version_1(path)
    with pytest.raises(ValueError, match="checkpoint version 1 stored one member"):
        Checkpoint.load(path)


def test_checkpoint_version_enters_the_fingerprint_and_filenames(
    smoke_scale, tmp_path, monkeypatch
):
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    pipeline = ExperimentPipeline(
        smoke_scale, PipelineOptions(checkpoint_dir=str(tmp_path))
    )
    job = pipeline.split_job("anchor", smoke_scale.base_model_config())
    key = trained_model_fingerprint(smoke_scale, config)
    job_key = pipeline.job_fingerprint(job)
    filename = pipeline.checkpoint_path(job, job_key).name

    monkeypatch.setattr(
        checkpoint, "CHECKPOINT_VERSION", checkpoint.CHECKPOINT_VERSION + 1
    )
    assert trained_model_fingerprint(smoke_scale, config) != key
    bumped = pipeline.job_fingerprint(job)
    assert bumped != job_key
    assert pipeline.checkpoint_path(job, bumped).name == f"anchor-{bumped}.npz"
    assert pipeline.checkpoint_path(job, bumped).name != filename
