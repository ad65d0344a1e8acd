"""Resumable-sweep tests: incremental persistence, skip-completed, canonical
artifact equivalence between interrupted-then-resumed and uninterrupted runs
(an exception in a serial run, and a forked worker that dies outright)."""
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.sweep import (
    EXPERIMENTS,
    SweepConfig,
    canonical_artifact,
    run_sweep,
)


def sweep_config(cache_dir, output, **overrides):
    defaults = dict(
        scenarios=("paper_baseline", "dense_crowd"),
        seeds=(0, 1),
        experiment="table1",
        scale="smoke",
        parallel=False,
        cache_dir=str(cache_dir),
        output_path=str(output),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def canonical_json(artifact):
    return json.dumps(canonical_artifact(artifact), sort_keys=True)


def test_resume_requires_output_path(sweep_cache_dir):
    with pytest.raises(ValueError, match="resume"):
        SweepConfig(
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="table1",
            scale="smoke",
            resume=True,
            cache_dir=str(sweep_cache_dir),
        )


def test_partial_artifact_is_persisted_per_cell(sweep_cache_dir, tmp_path, monkeypatch):
    """A sweep killed mid-grid leaves a partial artifact with completed cells."""
    output = tmp_path / "sweep.json"
    true_fn = EXPERIMENTS["table1"]
    calls = []

    def flaky(scale, dataset, options=None):
        if calls:
            raise RuntimeError("simulated kill")
        calls.append(1)
        return true_fn(scale, dataset, options=options)

    monkeypatch.setitem(EXPERIMENTS, "table1", flaky)
    with pytest.raises(RuntimeError, match="simulated kill"):
        run_sweep(sweep_config(sweep_cache_dir, output))
    partial = json.loads(output.read_text())
    assert partial["partial"] is True
    assert partial["experiment"] == "table1" and partial["scale"] == "smoke"
    assert len(partial["completed_cells"]) == 1
    cell = partial["completed_cells"][0]
    assert cell["dataset_fingerprint"] and cell["metrics"]


def test_kill_and_resume_matches_uninterrupted_run(
    sweep_cache_dir, tmp_path, monkeypatch
):
    reference = run_sweep(
        sweep_config(sweep_cache_dir, tmp_path / "reference.json")
    )

    output = tmp_path / "resumable.json"
    true_fn = EXPERIMENTS["table1"]
    calls = []

    def flaky(scale, dataset, options=None):
        if len(calls) >= 2:
            raise RuntimeError("simulated kill")
        calls.append(1)
        return true_fn(scale, dataset, options=options)

    monkeypatch.setitem(EXPERIMENTS, "table1", flaky)
    with pytest.raises(RuntimeError):
        run_sweep(sweep_config(sweep_cache_dir, output))

    executed = []

    def counting(scale, dataset, options=None):
        executed.append((scale.scenario, scale.seed))
        return true_fn(scale, dataset, options=options)

    monkeypatch.setitem(EXPERIMENTS, "table1", counting)
    resumed = run_sweep(sweep_config(sweep_cache_dir, output, resume=True))

    # Only the two missing cells executed; the completed two were skipped.
    assert len(executed) == 2
    assert resumed["resume"] == {"skipped_cells": 2, "executed_cells": 2}
    assert canonical_json(resumed) == canonical_json(reference)
    # The artifact on disk is the final (non-partial) artifact.
    stored = json.loads(output.read_text())
    assert "partial" not in stored
    assert canonical_json(stored) == canonical_json(reference)


def test_resume_of_finished_sweep_skips_everything(
    sweep_cache_dir, tmp_path, monkeypatch
):
    output = tmp_path / "sweep.json"
    first = run_sweep(sweep_config(sweep_cache_dir, output))

    def exploding(scale, dataset, options=None):  # pragma: no cover - must not run
        raise AssertionError("no cell should execute on a full-skip resume")

    monkeypatch.setitem(EXPERIMENTS, "table1", exploding)
    resumed = run_sweep(sweep_config(sweep_cache_dir, output, resume=True))
    assert resumed["resume"] == {"skipped_cells": 4, "executed_cells": 0}
    assert canonical_json(resumed) == canonical_json(first)


def test_resume_ignores_mismatched_artifact(sweep_cache_dir, tmp_path):
    """An artifact from a different experiment/scale restarts the sweep."""
    output = tmp_path / "sweep.json"
    run_sweep(
        sweep_config(
            sweep_cache_dir,
            output,
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="fig2",
        )
    )
    resumed = run_sweep(
        sweep_config(
            sweep_cache_dir,
            output,
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="table1",
            resume=True,
        )
    )
    assert resumed["experiment"] == "table1"
    assert resumed["resume"]["skipped_cells"] == 0
    assert resumed["resume"]["executed_cells"] == 1


def test_canonical_artifact_strips_volatile_metadata(sweep_cache_dir, tmp_path):
    artifact = run_sweep(
        sweep_config(
            sweep_cache_dir,
            tmp_path / "sweep.json",
            scenarios=("paper_baseline",),
            seeds=(0,),
        )
    )
    canonical = canonical_artifact(artifact)
    assert "wall_clock_s" not in canonical
    assert "parallel" not in canonical and "max_workers" not in canonical
    for entry in canonical["scenarios"].values():
        for cell in entry["cells"]:
            assert "dataset_seconds" not in cell
            assert "dataset_cache_hit" not in cell
            assert cell["metrics"]
    # The original artifact is untouched (deep copy).
    assert "wall_clock_s" in artifact


def test_checkpointed_sweep_cell_resumes_training(sweep_cache_dir, tmp_path):
    """With a checkpoint dir, an interrupted training cell resumes mid-run and
    still reproduces the uninterrupted cell's metrics exactly."""
    reference = run_sweep(
        sweep_config(
            sweep_cache_dir,
            tmp_path / "reference.json",
            scenarios=("paper_baseline",),
            seeds=(0,),
            experiment="fig3a",
        )
    )

    output = tmp_path / "resumable.json"
    checkpoints = tmp_path / "ckpts"
    config = sweep_config(
        sweep_cache_dir,
        output,
        scenarios=("paper_baseline",),
        seeds=(0,),
        experiment="fig3a",
        checkpoint_dir=str(checkpoints),
    )

    # Kill the cell mid-experiment: let two schemes finish, then die.  Their
    # training checkpoints survive under the cell's checkpoint directory.
    from repro.fleet.trainer import FleetTrainer

    original_fit = FleetTrainer.fit
    fits = []

    def dying_fit(self, *args, **kwargs):
        if len(fits) >= 2:
            raise RuntimeError("simulated kill")
        fits.append(1)
        return original_fit(self, *args, **kwargs)

    FleetTrainer.fit = dying_fit
    try:
        with pytest.raises(RuntimeError):
            run_sweep(config)
    finally:
        FleetTrainer.fit = original_fit
    assert list(checkpoints.rglob("*.npz")), "per-job checkpoints must exist"

    import dataclasses

    resumed = run_sweep(dataclasses.replace(config, resume=True))
    assert canonical_json(resumed) == canonical_json(reference)


def test_worker_death_then_resume_matches_uninterrupted_run(
    sweep_cache_dir, tmp_path, monkeypatch
):
    """One forked worker dies with ``os._exit`` once another cell completed.

    The sweep fails with the broken pool, the partial artifact keeps every
    completed cell, and the resumed sweep re-runs only the rest and writes
    the uninterrupted run's canonical artifact.
    """
    reference = run_sweep(sweep_config(sweep_cache_dir, tmp_path / "reference.json"))

    output = tmp_path / "killed.json"
    true_fn = EXPERIMENTS["table1"]

    def completed_cells():
        try:
            return len(json.loads(output.read_text())["completed_cells"])
        except (OSError, ValueError, KeyError):
            return 0

    def dying(scale, dataset, options=None):
        if (scale.scenario, scale.seed) == ("paper_baseline", 0):
            deadline = time.monotonic() + 120.0
            while completed_cells() == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            os._exit(1)  # no exception, no cleanup: the worker process is gone
        return true_fn(scale, dataset, options=options)

    monkeypatch.setitem(EXPERIMENTS, "table1", dying)
    with pytest.raises(BrokenProcessPool):
        run_sweep(sweep_config(sweep_cache_dir, output, parallel=True, max_workers=2))
    partial = json.loads(output.read_text())
    assert partial["partial"] is True
    survivors = len(partial["completed_cells"])
    assert 1 <= survivors < 4

    monkeypatch.setitem(EXPERIMENTS, "table1", true_fn)
    resumed = run_sweep(
        sweep_config(sweep_cache_dir, output, resume=True, parallel=True, max_workers=2)
    )
    assert resumed["resume"] == {
        "skipped_cells": survivors,
        "executed_cells": 4 - survivors,
    }
    assert canonical_json(resumed) == canonical_json(reference)
    assert canonical_json(json.loads(output.read_text())) == canonical_json(reference)
