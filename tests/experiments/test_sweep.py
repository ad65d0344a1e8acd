"""Tests for the multi-scenario / multi-seed sweep orchestrator."""
import json

import numpy as np
import pytest

from repro.dataset.generator import MmWaveDepthDatasetGenerator
from repro.experiments.pipeline import experiment_specs
from repro.experiments.sweep import (
    ARTIFACT_SCHEMA_VERSION,
    SweepConfig,
    format_summary,
    main,
    run_sweep,
)
from repro.utils import parallel


def smoke_sweep_config(cache_dir, **overrides):
    defaults = dict(
        scenarios=("paper_baseline", "dense_crowd"),
        seeds=(0, 1),
        experiment="table1",
        scale="smoke",
        parallel=False,
        cache_dir=str(cache_dir),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_sweep_config_validation(sweep_cache_dir):
    with pytest.raises(ValueError, match="scenario"):
        SweepConfig(scenarios=(), seeds=(0,))
    with pytest.raises(ValueError, match="seed"):
        SweepConfig(scenarios=("paper_baseline",), seeds=())
    with pytest.raises(ValueError, match="experiment"):
        smoke_sweep_config(sweep_cache_dir, experiment="fig9")
    with pytest.raises(ValueError, match="scale"):
        smoke_sweep_config(sweep_cache_dir, scale="galactic")
    with pytest.raises(ValueError, match="duplicate"):
        smoke_sweep_config(sweep_cache_dir, seeds=(0, 0))


def test_sweep_seeds_must_be_integers(sweep_cache_dir):
    with pytest.raises(TypeError, match="seed"):
        smoke_sweep_config(sweep_cache_dir, seeds=(0.5,))
    with pytest.raises(TypeError, match="seed"):
        smoke_sweep_config(sweep_cache_dir, seeds=(True,))
    config = smoke_sweep_config(sweep_cache_dir, seeds=(np.int64(3), 4))
    assert config.seeds == (3, 4)
    assert all(type(seed) is int for seed in config.seeds)


def test_sweep_unknown_scenario_fails_at_construction(sweep_cache_dir):
    with pytest.raises(KeyError, match="no_such_place"):
        smoke_sweep_config(sweep_cache_dir, scenarios=("no_such_place",))


def test_sweep_config_accepts_scenario_instances(sweep_cache_dir):
    from repro.scenarios import Scenario, get_scenario

    config = smoke_sweep_config(
        sweep_cache_dir, scenarios=(get_scenario("paper_baseline"), "dense_crowd")
    )
    assert config.scenarios == ("paper_baseline", "dense_crowd")
    with pytest.raises(ValueError, match="not registered"):
        smoke_sweep_config(
            sweep_cache_dir, scenarios=(Scenario(name="unregistered_place"),)
        )


def test_physically_identical_scenarios_run_once(sweep_cache_dir, monkeypatch):
    """A renamed clone of a preset shares physics: its cells are not re-run."""
    import dataclasses

    from repro.scenarios import get_scenario, register, registry

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    clone = dataclasses.replace(
        get_scenario("paper_baseline"), name="baseline_clone", description="copy"
    )
    register(clone)
    artifact = run_sweep(
        smoke_sweep_config(
            sweep_cache_dir,
            scenarios=("paper_baseline", "baseline_clone"),
            seeds=(0,),
        )
    )
    original = artifact["scenarios"]["paper_baseline"]["cells"][0]
    copied = artifact["scenarios"]["baseline_clone"]["cells"][0]
    assert original["metrics"] == copied["metrics"]
    assert original["dataset_fingerprint"] == copied["dataset_fingerprint"]
    # The copy is flagged and its execution metadata zeroed.
    assert copied["deduplicated_from"] == "paper_baseline"
    assert copied["experiment_seconds"] == 0.0
    assert "deduplicated_from" not in original
    assert (
        artifact["scenarios"]["paper_baseline"]["scenario_hash"]
        == artifact["scenarios"]["baseline_clone"]["scenario_hash"]
    )


def test_sweep_fig3a_metrics_include_communication(sweep_cache_dir):
    """Schema v2: fig3a cells carry the streaming ARQ accounting per scheme."""
    artifact = run_sweep(
        smoke_sweep_config(
            sweep_cache_dir,
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="fig3a",
        )
    )
    metrics = artifact["scenarios"]["paper_baseline"]["cells"][0]["metrics"]
    # Every communicating scheme reports slots/latency; at least one slot per
    # direction per step.
    assert metrics["img+rf-4x4/comm_mean_slots_per_step"] >= 2.0
    assert metrics["img+rf-4x4/comm_mean_step_latency_s"] >= 2e-3
    assert metrics["img+rf-4x4/comm_downlink_skipped"] == 0.0
    assert metrics["img+rf-4x4/lost_steps"] == 0.0
    # The RF-only baseline never communicates: no comm_* keys, only lost_steps.
    assert metrics["rf-only/lost_steps"] == 0.0
    assert not any(key.startswith("rf-only/comm_") for key in metrics)


def test_sweep_fleet_experiment_metrics(sweep_cache_dir):
    """The fleet experiment is in the experiment table and reports per-(mode, N)
    metrics."""
    assert "fleet" in experiment_specs()
    artifact = run_sweep(
        smoke_sweep_config(
            sweep_cache_dir,
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="fleet",
        )
    )
    metrics = artifact["scenarios"]["paper_baseline"]["cells"][0]["metrics"]
    for mode in ("rotation", "parallel_average"):
        for num_ues in (1, 2, 4):
            assert f"{mode}/n{num_ues}/final_rmse_db" in metrics
            occupancy = metrics[f"{mode}/n{num_ues}/medium_occupancy"]
            assert 0.0 < occupancy < 1.0
    # Rotation fleets serialize turns; parallel-average amortizes compute.
    assert (
        metrics["parallel_average/n4/elapsed_s"]
        < metrics["rotation/n4/elapsed_s"]
    )


def test_sweep_artifact_schema(sweep_cache_dir, tmp_path):
    output = tmp_path / "artifacts" / "sweep.json"
    artifact = run_sweep(
        smoke_sweep_config(sweep_cache_dir, output_path=str(output))
    )
    assert artifact["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert artifact["experiment"] == "table1"
    assert artifact["scale"] == "smoke"
    assert artifact["seeds"] == [0, 1]
    assert artifact["num_cells"] == 4
    assert set(artifact["scenarios"]) == {"paper_baseline", "dense_crowd"}
    for entry in artifact["scenarios"].values():
        assert len(entry["scenario_hash"]) == 16
        assert [cell["seed"] for cell in entry["cells"]] == [0, 1]
        for cell in entry["cells"]:
            assert set(cell["metrics"]) == set(entry["aggregate"])
            assert cell["dataset_fingerprint"]
        for stats in entry["aggregate"].values():
            assert stats["num_seeds"] == 2
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["std"] >= 0.0
    # The artifact on disk round-trips and matches the returned value.
    assert json.loads(output.read_text()) == artifact
    summary = format_summary(artifact)
    assert "paper_baseline" in summary and "dense_crowd" in summary


def test_second_sweep_hits_dataset_cache(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    config = smoke_sweep_config(cache_dir, scenarios=("paper_baseline",), seeds=(0,))

    calls = []
    original_generate = MmWaveDepthDatasetGenerator.generate

    def counting_generate(self):
        calls.append(self.config)
        return original_generate(self)

    monkeypatch.setattr(MmWaveDepthDatasetGenerator, "generate", counting_generate)

    first = run_sweep(config)
    assert len(calls) == 1
    assert first["scenarios"]["paper_baseline"]["cells"][0]["dataset_cache_hit"] is False

    second = run_sweep(config)
    assert len(calls) == 1, "second sweep must not regenerate the dataset"
    cell = second["scenarios"]["paper_baseline"]["cells"][0]
    assert cell["dataset_cache_hit"] is True
    # Identical metrics either way: the cache is content-addressed.
    assert (
        first["scenarios"]["paper_baseline"]["cells"][0]["metrics"]
        == cell["metrics"]
    )

    # A truncated entry is a miss: the cell regenerates and says so.
    (entry,) = cache_dir.glob("dataset-*.npz")
    entry.write_bytes(entry.read_bytes()[:100])
    third = run_sweep(config)
    assert len(calls) == 2
    cell = third["scenarios"]["paper_baseline"]["cells"][0]
    assert cell["dataset_cache_hit"] is False
    assert first["scenarios"]["paper_baseline"]["cells"][0]["metrics"] == cell["metrics"]


def test_cache_is_scenario_and_seed_addressed(sweep_cache_dir):
    artifact = run_sweep(smoke_sweep_config(sweep_cache_dir))
    fingerprints = {
        cell["dataset_fingerprint"]
        for entry in artifact["scenarios"].values()
        for cell in entry["cells"]
    }
    assert len(fingerprints) == 4  # 2 scenarios x 2 seeds, all distinct


def test_serial_and_parallel_sweeps_agree(sweep_cache_dir, fast_scale, fast_dataset):
    """Serial vs process-pool equivalence at the fast() scale (fig2).

    The session's shared ``fast_dataset`` is saved into the sweep cache under
    its content hash first, so neither run regenerates the paper_baseline
    seed-0 dataset.
    """
    from repro.dataset.cache import dataset_cache_path, save_dataset

    cache_path = dataset_cache_path(fast_scale.dataset_config(), sweep_cache_dir)
    if not cache_path.exists():
        save_dataset(fast_dataset, cache_path)

    fast_config = dict(
        scenarios=("paper_baseline", "dense_crowd"),
        seeds=(0,),
        experiment="fig2",
        scale="fast",
        cache_dir=str(sweep_cache_dir),
    )
    serial = run_sweep(SweepConfig(parallel=False, **fast_config))
    assert serial["scenarios"]["paper_baseline"]["cells"][0]["dataset_cache_hit"]
    parallel = run_sweep(
        SweepConfig(parallel=True, max_workers=2, **fast_config)
    )
    assert parallel["parallel"] is True and serial["parallel"] is False
    for name in serial["scenarios"]:
        serial_cells = serial["scenarios"][name]["cells"]
        parallel_cells = parallel["scenarios"][name]["cells"]
        # Timing fields differ run to run; the science must not.
        assert [cell["metrics"] for cell in serial_cells] == [
            cell["metrics"] for cell in parallel_cells
        ]
        assert [cell["dataset_fingerprint"] for cell in serial_cells] == [
            cell["dataset_fingerprint"] for cell in parallel_cells
        ]
        assert (
            serial["scenarios"][name]["aggregate"]
            == parallel["scenarios"][name]["aggregate"]
        )


def test_training_experiment_metrics(sweep_cache_dir):
    artifact = run_sweep(
        smoke_sweep_config(
            sweep_cache_dir,
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="fig3b",
        )
    )
    metrics = artifact["scenarios"]["paper_baseline"]["cells"][0]["metrics"]
    assert any(key.endswith("/rmse_db") for key in metrics)
    assert all(value == value for value in metrics.values())  # no NaNs


@pytest.mark.parametrize("cpus, workers", [(1, 2), (3, 3)])
def test_default_pool_size_follows_the_available_cpus(
    sweep_cache_dir, monkeypatch, cpus, workers
):
    """The default pool is the CPUs this process may run on (as for
    ``train_all``), and at least two workers."""
    monkeypatch.setattr(parallel, "_available_cpus", lambda: cpus)
    artifact = run_sweep(smoke_sweep_config(sweep_cache_dir, parallel=True))
    assert artifact["parallel"] is True
    assert artifact["max_workers"] == workers


def test_cli_writes_artifact(sweep_cache_dir, tmp_path, capsys):
    output = tmp_path / "cli-sweep.json"
    exit_code = main(
        [
            "--scenarios",
            "paper_baseline",
            "dense_crowd",
            "--seeds",
            "2",
            "--experiment",
            "table1",
            "--scale",
            "smoke",
            "--serial",
            "--cache-dir",
            str(sweep_cache_dir),
            "--output",
            str(output),
        ]
    )
    assert exit_code == 0
    artifact = json.loads(output.read_text())
    assert artifact["num_cells"] == 4
    captured = capsys.readouterr().out
    assert "paper_baseline" in captured
    assert str(output) in captured


def test_cli_seed_list_and_list_scenarios(sweep_cache_dir, tmp_path, capsys):
    exit_code = main(["--list-scenarios"])
    assert exit_code == 0
    assert "paper_baseline" in capsys.readouterr().out

    output = tmp_path / "seeded.json"
    main(
        [
            "--scenarios",
            "paper_baseline",
            "--seed-list",
            "7",
            "--experiment",
            "table1",
            "--scale",
            "smoke",
            "--serial",
            "--cache-dir",
            str(sweep_cache_dir),
            "--output",
            str(output),
        ]
    )
    assert json.loads(output.read_text())["seeds"] == [7]
