"""``ExperimentPipeline.train_all``: independent jobs in forked workers.

The worker count is :func:`repro.utils.parallel.available_workers`, whose
CPU count is patched here to pick one worker (everything runs in this
process) or two (the jobs that miss the model cache run in a fork pool).
Either way every history, prediction, artifact and cache entry must be
bit-identical, and no worker may outlive the call.
"""
import dataclasses
import hashlib
import json
import multiprocessing
import os
import textwrap
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments.common import scheme_model_configs
from repro.experiments.fig3a_learning_curves import run_fig3a
from repro.experiments.fig3b_power_prediction import run_fig3b
from repro.experiments.fig_compression_pareto import run_compression_pareto
from repro.experiments.fig_fleet_scaling import run_fleet_scaling
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.split.bs import BSServer
from repro.utils import parallel
from tests.experiments.orphan_check import (
    assert_workers_exit_with_killed_parent,
    needs_fork_and_proc,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the test patches the parent and relies on fork workers inheriting it",
)


@pytest.fixture()
def workers(monkeypatch):
    """Set the CPU count ``train_all`` sizes its pool by."""

    def set_workers(count: int) -> None:
        monkeypatch.setattr(parallel, "_available_cpus", lambda: count)

    return set_workers


def _refuse_pool(*args, **kwargs):
    raise AssertionError("train_all built a process pool")


def history_state(history):
    """Everything a history holds, as plain data."""
    return dataclasses.asdict(history)


def sha256_of(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_fig3a_and_fig3b_match_serial_bitwise(
    workers, smoke_scale, smoke_split, tmp_path
):
    runs = {}
    for count in (1, 2):
        workers(count)
        options = PipelineOptions(
            checkpoint_dir=str(tmp_path / f"ckpts-{count}"),
            model_cache_dir=str(tmp_path / f"models-{count}"),
        )
        fig3a = run_fig3a(smoke_scale, split=smoke_split, options=options)
        assert multiprocessing.active_children() == []
        fig3b = run_fig3b(smoke_scale, split=smoke_split, options=options)
        assert multiprocessing.active_children() == []
        runs[count] = (fig3a, fig3b)

    (serial_a, serial_b), (pool_a, pool_b) = runs[1], runs[2]
    assert list(pool_a.histories) == list(serial_a.histories)
    for name, history in serial_a.histories.items():
        pooled = pool_a.histories[name]
        assert history_state(pooled) == history_state(history), name
    assert list(pool_b.predictions) == list(serial_b.predictions)
    for name, prediction in serial_b.predictions.items():
        assert np.array_equal(
            pool_b.predictions[name].predictions_dbm, prediction.predictions_dbm
        ), name
    for kind in ("models", "ckpts"):
        serial_files = sha256_of(tmp_path / f"{kind}-1")
        assert serial_files, kind
        assert sha256_of(tmp_path / f"{kind}-2") == serial_files, kind


@pytest.mark.parametrize("count", [1, 2])
def test_models_predict_like_the_fitted_trainers(
    count, workers, smoke_scale, smoke_split
):
    """``train_all`` hands back restored trainers: they must predict bit for
    bit what the trainer that ran the fit predicts."""
    workers(count)
    pipeline = ExperimentPipeline(smoke_scale, split=smoke_split)
    jobs = [
        pipeline.split_job(name, config)
        for name, config in scheme_model_configs(smoke_scale).items()
    ]
    validation = smoke_split.validation
    for job, model in zip(jobs, pipeline.train_all(jobs)):
        fitted = pipeline.train(job)
        assert history_state(model.history) == history_state(fitted.history)
        assert np.array_equal(
            pipeline.predict_dbm(model, validation),
            pipeline.predict_dbm(fitted, validation),
        ), job.key


def test_pareto_and_fleet_artifacts_match_serial_bitwise(
    workers, smoke_scale, smoke_split
):
    artifacts = {}
    for count in (1, 2):
        workers(count)
        pareto = run_compression_pareto(
            smoke_scale, codecs=("identity", "uint8", "topk"), max_rounds=2,
            split=smoke_split,
        )
        fleet = run_fleet_scaling(
            smoke_scale, split=smoke_split, ue_counts=(1, 2), max_rounds=2
        )
        assert multiprocessing.active_children() == []
        artifacts[count] = [
            json.dumps(artifact, sort_keys=True)
            for artifact in (pareto.artifact(), fleet.artifact())
        ]
    assert artifacts[2] == artifacts[1]


@needs_fork
def test_worker_error_reaches_the_caller_and_leaves_no_worker(
    workers, smoke_scale, smoke_split, monkeypatch
):
    parent = os.getpid()
    original = BSServer.compute_loss_and_gradients

    def poisoned(self, *args):
        if os.getpid() != parent:  # only a worker's steps fail
            raise FloatingPointError("non-finite BS loss nan")
        return original(self, *args)

    monkeypatch.setattr(BSServer, "compute_loss_and_gradients", poisoned)
    workers(2)
    message = r"^round 1, step 1: non-finite BS loss"
    with pytest.raises(FloatingPointError, match=message):
        run_fig3a(smoke_scale, split=smoke_split)
    assert multiprocessing.active_children() == []


def test_all_cache_hits_build_no_pool(
    workers, smoke_scale, smoke_split, tmp_path, monkeypatch
):
    options = PipelineOptions(model_cache_dir=str(tmp_path / "models"))
    workers(1)
    fresh = run_fig3a(smoke_scale, split=smoke_split, options=options)

    workers(2)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _refuse_pool)
    pipeline = ExperimentPipeline(smoke_scale, options, split=smoke_split)
    jobs = [
        pipeline.split_job(name, config)
        for name, config in scheme_model_configs(smoke_scale).items()
    ]
    trained = pipeline.train_all(jobs)
    assert [model.key for model in trained] == list(fresh.histories)
    for model in trained:
        assert model.cache_hit
        expected = fresh.histories[model.key]
        assert history_state(model.history) == history_state(expected)


def _fig3a_in_worker(scale, split):
    """Run fig3a in a pool worker; return its histories as plain data."""
    histories = run_fig3a(scale, split=split).histories
    return {name: history_state(history) for name, history in histories.items()}


@needs_fork
def test_train_all_inside_a_pool_worker_runs_serially(
    workers, smoke_scale, smoke_split, monkeypatch
):
    workers(2)
    # Inherited by the fork worker: a pool built there fails its job.
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _refuse_pool)
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        in_worker = pool.submit(_fig3a_in_worker, smoke_scale, smoke_split).result()
    assert multiprocessing.active_children() == []
    workers(1)
    serial = run_fig3a(smoke_scale, split=smoke_split)
    assert in_worker == {
        name: history_state(history) for name, history in serial.histories.items()
    }


#: A smoke fig3a on two workers whose training steps hang, so the workers
#: are mid-job when the test kills this process.
_HANGING_PARENT = textwrap.dedent(
    """
    import time
    from repro.experiments import run_fig3a, scale_from_name
    from repro.split.bs import BSServer
    from repro.utils import parallel

    BSServer.compute_loss_and_gradients = lambda self, *args: time.sleep(600)
    parallel._available_cpus = lambda: 2
    run_fig3a(scale_from_name("smoke"))
    """
)


@needs_fork_and_proc
def test_workers_exit_when_the_parent_is_killed():
    assert_workers_exit_with_killed_parent(_HANGING_PARENT)
