"""Tests for the unified experiment pipeline, model cache and runner CLI."""
import json

import numpy as np
import pytest

from repro.dataset.cache import load_cached_dataset
from repro.experiments.fig3a_learning_curves import run_fig3a
from repro.experiments.model_cache import (
    trained_model_fingerprint,
    trained_model_path,
)
from repro.experiments.pipeline import (
    ExperimentPipeline,
    PipelineOptions,
    TrainingJob,
    experiment_specs,
)
from repro.experiments.run import main as run_main
from repro.experiments.sweep import SweepConfig, run_cell, run_sweep
from repro.fleet import SINGLE_UE, FleetConfig, FleetTrainer
from repro.split import ExperimentConfig


@pytest.fixture()
def pipeline(smoke_scale, smoke_dataset, smoke_split):
    return ExperimentPipeline(smoke_scale, dataset=smoke_dataset, split=smoke_split)


def records_of(history):
    import dataclasses

    return [dataclasses.asdict(record) for record in history.records]


# -- stages -------------------------------------------------------------------------


def test_pipeline_lazy_dataset_and_split(smoke_scale, smoke_dataset):
    pipeline = ExperimentPipeline(smoke_scale, dataset=smoke_dataset)
    assert pipeline.dataset is smoke_dataset
    split = pipeline.split
    assert pipeline.split is split  # cached


def test_pipeline_dataset_cache_roundtrip(smoke_scale, smoke_dataset, tmp_path):
    """A cell (sweep or ``run``) generates its dataset into the cache once,
    then loads it back: the same dataset, the same metrics."""
    cache_dir = str(tmp_path / "datasets")
    first, _ = run_cell("table1", "smoke", "paper_baseline", 0, cache_dir=cache_dir)
    second, _ = run_cell("table1", "smoke", "paper_baseline", 0, cache_dir=cache_dir)
    assert not first["dataset_cache_hit"] and second["dataset_cache_hit"]
    assert first["metrics"] == second["metrics"]
    cached = load_cached_dataset(smoke_scale.dataset_config(), cache_dir=cache_dir)
    assert np.array_equal(cached.images, smoke_dataset.images)
    assert list((tmp_path / "datasets").glob("dataset-*.npz"))


def test_train_stage_runs_split_and_fleet_jobs(pipeline, smoke_scale):
    trained = pipeline.train(
        pipeline.split_job("anchor", smoke_scale.base_model_config())
    )
    assert trained.history.records and not trained.cache_hit and not trained.resumed
    assert np.isfinite(pipeline.evaluate(trained, pipeline.split.validation))

    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    fleet = pipeline.train(
        pipeline.fleet_job(
            "rotation/n2",
            FleetConfig(num_ues=2, mode="rotation"),
            config,
            max_rounds=1,
        )
    )
    assert len(fleet.history.records) == 1


def test_training_job_validation(smoke_scale):
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    # Every job trains on the fleet engine; a single-UE job is the rotation
    # fleet of one, and the retired trainer-kind switch is refused.
    job = TrainingJob(key="x", config=config)
    assert job.fleet_config == FleetConfig(num_ues=1, mode="rotation")
    assert isinstance(job.build_trainer(), FleetTrainer)
    with pytest.raises(TypeError, match="kind"):
        TrainingJob(key="x", config=config, kind="fleet")


# -- trained-model cache ------------------------------------------------------------


def test_fingerprint_separates_configurations(smoke_scale):
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    base = trained_model_fingerprint(smoke_scale, config)
    assert base == trained_model_fingerprint(smoke_scale, config)
    assert base != trained_model_fingerprint(smoke_scale.with_seed(1), config)
    assert base == trained_model_fingerprint(
        smoke_scale, config, fleet_config=FleetConfig(num_ues=1, mode="rotation")
    )
    assert base != trained_model_fingerprint(smoke_scale, config,
                                             fleet_config=FleetConfig(num_ues=2))
    assert base != trained_model_fingerprint(smoke_scale, config,
                                             extra={"max_rounds": 1})
    assert trained_model_path(base).name == f"model-{base}.npz"


#: Smoke-scale fingerprints pinned at ``TRAJECTORY_VERSION`` 1, when
#: ``FleetConfig`` still carried an execution-only ``backend`` field that the
#: fingerprint dropped: removing the field must leave every key, so entries
#: trained before still hit.  A version bump moves every key on purpose
#: (``test_fingerprint_hashes_trajectory_version``), so the keys are derived
#: at the pinned version.
PINNED_SMOKE_FINGERPRINTS = {
    "single_ue": "abaa730b7671b336",
    "parallel_n2": "f0a123b5aed5cc95",
}


def test_fingerprints_are_pinned(smoke_scale, monkeypatch):
    from repro.dataset import cache

    monkeypatch.setattr(cache, "TRAJECTORY_VERSION", 1)
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    assert trained_model_fingerprint(
        smoke_scale, config, fleet_config=SINGLE_UE
    ) == PINNED_SMOKE_FINGERPRINTS["single_ue"]
    assert trained_model_fingerprint(
        smoke_scale,
        config,
        fleet_config=FleetConfig(num_ues=2, mode="parallel_average"),
    ) == PINNED_SMOKE_FINGERPRINTS["parallel_n2"]


def test_fingerprint_hashes_trajectory_version(smoke_scale, monkeypatch):
    from repro.dataset import cache

    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )

    def fleet_key():
        fleet = FleetConfig(num_ues=2, mode="parallel_average")
        return trained_model_fingerprint(smoke_scale, config, fleet_config=fleet)

    dataset_key = cache.config_fingerprint(smoke_scale.dataset_config())
    split_key = trained_model_fingerprint(smoke_scale, config)
    fleet_before = fleet_key()
    monkeypatch.setattr(cache, "TRAJECTORY_VERSION", cache.TRAJECTORY_VERSION + 1)
    assert cache.config_fingerprint(smoke_scale.dataset_config()) != dataset_key
    assert trained_model_fingerprint(smoke_scale, config) != split_key
    assert fleet_key() != fleet_before


def test_model_cache_hit_skips_training(smoke_scale, smoke_dataset, smoke_split,
                                        tmp_path, monkeypatch):
    options = PipelineOptions(model_cache_dir=str(tmp_path / "models"))
    job_args = ("anchor", smoke_scale.base_model_config())

    first_pipeline = ExperimentPipeline(
        smoke_scale, options, dataset=smoke_dataset, split=smoke_split
    )
    first = first_pipeline.train(first_pipeline.split_job(*job_args))
    assert not first.cache_hit
    assert trained_model_path(first.fingerprint, options.model_cache_dir).exists()

    steps = []
    from repro.split.protocol import SplitTrainingProtocol

    original_step = SplitTrainingProtocol.training_step

    def counting_step(self, *args, **kwargs):
        steps.append(1)
        return original_step(self, *args, **kwargs)

    monkeypatch.setattr(SplitTrainingProtocol, "training_step", counting_step)
    second_pipeline = ExperimentPipeline(
        smoke_scale, options, dataset=smoke_dataset, split=smoke_split
    )
    second = second_pipeline.train(second_pipeline.split_job(*job_args))
    assert second.cache_hit
    assert steps == []  # not a single SGD step ran
    assert records_of(second.history) == records_of(first.history)
    # The cache-hit trainer is fully usable for evaluation.
    assert second_pipeline.evaluate(second, smoke_split.validation) == pytest.approx(
        first_pipeline.evaluate(first, smoke_split.validation)
    )


def test_checkpoint_resume_roundtrip_through_pipeline(
    smoke_scale, smoke_dataset, smoke_split, tmp_path
):
    """A job interrupted mid-run resumes from --checkpoint-dir bit-identically."""
    model_config = smoke_scale.base_model_config()
    reference = ExperimentPipeline(
        smoke_scale, dataset=smoke_dataset, split=smoke_split
    )
    full = reference.train(reference.split_job("anchor", model_config))

    # Simulate a kill after epoch 1: write the full-budget job's checkpoint
    # file directly, as a mid-run fit would have.
    options = PipelineOptions(checkpoint_dir=str(tmp_path / "ckpts"), resume=True)
    partial = ExperimentPipeline(
        smoke_scale, options, dataset=smoke_dataset, split=smoke_split
    )
    job = partial.split_job("anchor", model_config)
    trainer = job.build_trainer()
    trainer.fit(
        smoke_split.train,
        smoke_split.validation,
        max_rounds=1,
        checkpoint_path=partial.checkpoint_path(job, partial.job_fingerprint(job)),
    )
    resumed_pipeline = ExperimentPipeline(
        smoke_scale, options, dataset=smoke_dataset, split=smoke_split
    )
    resumed = resumed_pipeline.train(resumed_pipeline.split_job("anchor", model_config))
    assert resumed.resumed
    assert records_of(resumed.history) == records_of(full.history)


# -- runner integration -------------------------------------------------------------


def test_run_fig3a_with_options_matches_plain_run(smoke_scale, smoke_split, tmp_path):
    plain = run_fig3a(smoke_scale, split=smoke_split, schemes=["rf-only"])
    persisted = run_fig3a(
        smoke_scale,
        split=smoke_split,
        schemes=["rf-only"],
        options=PipelineOptions(
            checkpoint_dir=str(tmp_path / "ckpts"),
            model_cache_dir=str(tmp_path / "models"),
        ),
    )
    assert records_of(plain.histories["rf-only"]) == records_of(
        persisted.histories["rf-only"]
    )
    # Second run is served from the model cache with identical results.
    cached = run_fig3a(
        smoke_scale,
        split=smoke_split,
        schemes=["rf-only"],
        options=PipelineOptions(model_cache_dir=str(tmp_path / "models")),
    )
    assert records_of(cached.histories["rf-only"]) == records_of(
        plain.histories["rf-only"]
    )


def test_experiment_specs_cover_the_registered_runners(smoke_scale, smoke_dataset):
    specs = experiment_specs()
    assert set(specs) == {"fig2", "fig3a", "fig3b", "fleet", "pareto", "table1"}
    metrics = specs["table1"].run_cell(smoke_scale, dataset=smoke_dataset)
    assert metrics and all(isinstance(value, float) for value in metrics.values())


def test_unified_cli_writes_artifact(tmp_path, capsys):
    output = tmp_path / "table1.json"
    exit_code = run_main(
        [
            "--experiment",
            "table1",
            "--scale",
            "smoke",
            "--cache-dir",
            str(tmp_path / "datasets"),
            "--output",
            str(output),
            "--checkpoint-dir",
            str(tmp_path / "ckpts"),
        ]
    )
    assert exit_code == 0
    artifact = json.loads(output.read_text())
    assert artifact["experiment"] == "table1"
    assert artifact["scale"] == "smoke"
    assert artifact["metrics"]
    assert str(output) in capsys.readouterr().out


def test_run_metrics_equal_the_sweep_cell(tmp_path, sweep_cache_dir):
    """``run`` is the sweep's one-cell case: same scenario and seed, same
    metrics."""
    output = tmp_path / "table1.json"
    assert run_main([
        "--experiment", "table1", "--scale", "smoke", "--scenario", "dense_crowd",
        "--seed", "1", "--cache-dir", str(sweep_cache_dir), "--output", str(output),
    ]) == 0
    artifact = run_sweep(
        SweepConfig(
            scenarios=("dense_crowd",),
            seeds=(1,),
            experiment="table1",
            scale="smoke",
            parallel=False,
            cache_dir=str(sweep_cache_dir),
        )
    )
    cell = artifact["scenarios"]["dense_crowd"]["cells"][0]
    written = json.loads(output.read_text())
    assert (written["scenario"], written["seed"]) == ("dense_crowd", 1)
    assert written["metrics"] == cell["metrics"]


def test_run_refuses_an_option_the_runner_does_not_take(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_main([
            "--experiment", "fig3a", "--ues", "2",
            "--output", str(tmp_path / "fig3a.json"),
        ])
    assert excinfo.value.code == 2
    assert "--ues does not apply to --experiment fig3a" in capsys.readouterr().err
    assert not (tmp_path / "fig3a.json").exists()
