"""Stage-based experiment pipeline shared by every paper runner.

All six experiments (``fig2`` / ``fig3a`` / ``fig3b`` / ``table1`` /
``fleet`` / ``pareto``) are compositions of the same four stages::

    dataset  ->  train  ->  evaluate  ->  artifact

:class:`ExperimentPipeline` implements the stages once, so run-state
persistence is implemented once instead of six times:

* **dataset** — the dataset a caller hands in (a sweep or ``run`` cell loads
  it through the content-addressed dataset cache), or a fresh one;
* **train** — run one :class:`TrainingJob` (a fleet; single-UE jobs are the
  fleet of one) with round-granular checkpoints under ``--checkpoint-dir``,
  resumption via ``--resume``, and content-addressed trained-model caching
  (:mod:`repro.experiments.model_cache`); a figure's independent jobs train
  side by side in forked workers (:meth:`ExperimentPipeline.train_all`);
* **evaluate** — the single normalized-eval path of the training engine
  (:meth:`repro.fleet.trainer.FleetTrainer.predict_dbm`);
* **artifact** — atomic JSON artifact writing (:func:`write_artifact`).

:func:`experiment_specs` is the one experiment table.  One CLI
(:mod:`repro.experiments.run`) runs any of them on one {scenario, seed}
cell, with the code a sweep (:mod:`repro.experiments.sweep`) runs each of
its cells with::

    python -m repro.experiments.run --experiment fig3a --scale fast \
        --checkpoint-dir ckpts --resume --output fig3a.json

A killed run re-executed with ``--resume`` continues every in-flight
training job from its last epoch checkpoint and reproduces the
uninterrupted run's artifact (training trajectories are bit-identical).
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.dataset.generator import DepthPowerDataset
from repro.dataset.splits import TrainValidationSplit
from repro.experiments.common import ExperimentScale, generate_dataset, prepare_split
from repro.experiments.model_cache import (
    trained_model_fingerprint,
    trained_model_path,
)
from repro.fleet.config import SINGLE_UE, FleetConfig
from repro.fleet.trainer import FleetHistory, FleetTrainer
from repro.nn.serialization import atomic_write_text
from repro.split.checkpoint import Checkpoint, CheckpointLike
from repro.split.config import ExperimentConfig
from repro.utils import parallel
from repro.utils.logging import get_logger

logger = get_logger("experiments.pipeline")

#: Version of the ``run`` CLI's artifact layout.  The ``figure`` key of the
#: experiments that have one (``fleet``, ``pareto``) is optional in it.
PIPELINE_ARTIFACT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineOptions:
    """Run-state persistence knobs shared by every runner (and the sweep).

    Attributes:
        checkpoint_dir: directory receiving one epoch-granular checkpoint
            file per training job (``None`` disables checkpointing).
        resume: continue jobs from their checkpoint files when present.
        model_cache_dir: content-addressed trained-model cache directory
            (``None`` disables the cache).
    """

    checkpoint_dir: Optional[str] = None
    resume: bool = False
    model_cache_dir: Optional[str] = None


@dataclass(frozen=True)
class TrainingJob:
    """One unit of the train stage: a trainer to fit and how to fit it.

    Attributes:
        key: stable human-readable identifier (scheme name, ``mode/nN`` cell).
        config: full experiment configuration.
        fleet_config: fleet shape (default: the paper's single UE).
        fit_kwargs: extra keyword arguments for ``fit`` (e.g. ``max_rounds``).
    """

    key: str
    config: ExperimentConfig
    fleet_config: FleetConfig = SINGLE_UE
    fit_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build_trainer(self) -> FleetTrainer:
        return FleetTrainer(self.config, self.fleet_config)


@dataclass
class TrainedModel:
    """Outcome of the train stage for one job."""

    key: str
    trainer: FleetTrainer
    history: FleetHistory
    fingerprint: str
    cache_hit: bool = False
    resumed: bool = False


@dataclass(frozen=True)
class _JobPlan:
    """Where one job's run state lives, and what its fit starts from."""

    fingerprint: str
    checkpoint_path: Optional[Path]
    cache_path: Optional[Path]
    resume_from: Optional[CheckpointLike]
    cache_hit: bool


def _job_slug(key: str) -> str:
    """Filesystem-safe form of a job key."""
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", key).strip("-") or "job"


class ExperimentPipeline:
    """The shared dataset -> train -> evaluate -> artifact stages.

    Args:
        scale: experiment scale (default: :meth:`ExperimentScale.fast`).
        options: run-state persistence knobs.
        dataset: pre-built dataset (skips the dataset stage).
        split: pre-built train/validation split (skips split preparation).
    """

    def __init__(
        self,
        scale: Optional[ExperimentScale] = None,
        options: Optional[PipelineOptions] = None,
        dataset: Optional[DepthPowerDataset] = None,
        split: Optional[TrainValidationSplit] = None,
    ):
        self.scale = scale or ExperimentScale.fast()
        self.options = options or PipelineOptions()
        self._dataset = dataset
        self._split = split

    # -- stage 1: dataset -------------------------------------------------------------
    @property
    def dataset(self) -> DepthPowerDataset:
        """The experiment dataset, generated on first use unless handed in."""
        if self._dataset is None:
            self._dataset = generate_dataset(self.scale)
        return self._dataset

    @property
    def split(self) -> TrainValidationSplit:
        """The train/validation split, derived from the dataset on first use."""
        if self._split is None:
            self._split = prepare_split(self.scale, self.dataset)
        return self._split

    # -- stage 2: train ---------------------------------------------------------------
    def split_job(self, key: str, model_config, **fit_kwargs) -> TrainingJob:
        """A single-UE job at this pipeline's scale (scenario channel)."""
        return TrainingJob(
            key=key,
            config=ExperimentConfig.for_scenario(
                self.scale.scenario,
                model=model_config,
                training=self.scale.training_config(),
            ),
            fit_kwargs=fit_kwargs,
        )

    def fleet_job(
        self, key: str, fleet_config: FleetConfig, config: ExperimentConfig, **fit_kwargs
    ) -> TrainingJob:
        """A fleet job sharing this pipeline's scale."""
        return TrainingJob(
            key=key,
            config=config,
            fleet_config=fleet_config,
            fit_kwargs=fit_kwargs,
        )

    def job_fingerprint(self, job: TrainingJob) -> str:
        return trained_model_fingerprint(
            self.scale,
            job.config,
            fleet_config=job.fleet_config,
            extra=dict(job.fit_kwargs),
        )

    def checkpoint_path(self, job: TrainingJob, fingerprint: str) -> Optional[Path]:
        """Per-job checkpoint file under ``options.checkpoint_dir``.

        The fingerprint rides in the filename, so a changed configuration
        never resumes from a stale checkpoint — it simply starts fresh.
        """
        if self.options.checkpoint_dir is None:
            return None
        return Path(self.options.checkpoint_dir) / (
            f"{_job_slug(job.key)}-{fingerprint}.npz"
        )

    def _plan(self, job: TrainingJob) -> _JobPlan:
        """Resolve a job's run state: a model-cache hit, a resume, or fresh.

        A cache entry that cannot be loaded (truncated, corrupted, an old
        layout) is a miss.
        """
        fingerprint = self.job_fingerprint(job)
        checkpoint_path = self.checkpoint_path(job, fingerprint)
        cache_path = (
            trained_model_path(fingerprint, self.options.model_cache_dir)
            if self.options.model_cache_dir is not None
            else None
        )

        resume_from: Optional[CheckpointLike] = None
        cache_hit = False
        if cache_path is not None and cache_path.exists():
            try:
                resume_from = Checkpoint.load(cache_path)
                cache_hit = True
                logger.info(
                    "job %s: trained-model cache hit (%s)", job.key, fingerprint
                )
            except ValueError as exc:
                logger.warning(
                    "job %s: unreadable model-cache entry, retraining (%s)",
                    job.key,
                    exc,
                )
        if (
            not cache_hit
            and self.options.resume
            and checkpoint_path is not None
            and checkpoint_path.exists()
        ):
            resume_from = checkpoint_path
            logger.info("job %s: resuming from %s", job.key, checkpoint_path)
        return _JobPlan(
            fingerprint, checkpoint_path, cache_path, resume_from, cache_hit
        )

    def _train(
        self,
        job: TrainingJob,
        plan: _JobPlan,
        finished: Optional[Checkpoint] = None,
    ) -> TrainedModel:
        """Fit ``job`` from its plan; store a fresh result in the model cache.

        ``finished`` is the final checkpoint of this job, trained already by
        :meth:`train_all`: the fit restores it, as it restores a cache hit,
        and stores nothing.
        """
        trainer = job.build_trainer()
        history = trainer.fit(
            self.split.train,
            self.split.validation,
            checkpoint_path=plan.checkpoint_path,
            resume_from=plan.resume_from if finished is None else finished,
            **dict(job.fit_kwargs),
        )
        if finished is None and plan.cache_path is not None and not plan.cache_hit:
            trainer.final_checkpoint(history).save(plan.cache_path)
        return TrainedModel(
            key=job.key,
            trainer=trainer,
            history=history,
            fingerprint=plan.fingerprint,
            cache_hit=plan.cache_hit,
            resumed=plan.resume_from is not None and not plan.cache_hit,
        )

    def train(self, job: TrainingJob) -> TrainedModel:
        """Run one training job through cache, checkpointing and resume.

        Resolution order: a trained-model cache entry (a finished run's
        checkpoint) is restored instantly; otherwise, with ``resume`` set, an
        existing job checkpoint continues bit-identically; otherwise the job
        trains from scratch.  Fresh results are stored back into the model
        cache when one is configured.  A cache entry that cannot be loaded
        (truncated, corrupted, an old layout) is a miss: the job retrains
        and the fresh entry atomically replaces it.
        """
        return self._train(job, self._plan(job))

    def train_all(self, jobs: Sequence[TrainingJob]) -> List[TrainedModel]:
        """Run independent jobs; those that still need training run concurrently.

        Cache hits and resume points resolve here, as in :meth:`train`.  The
        jobs left to train run in ``min(CPUs, jobs left)`` forked workers
        (:func:`repro.utils.parallel.fork_each`), or here, one after
        another, when that is one worker, the platform cannot fork, or this
        process is itself a pool worker (a parallel sweep cell).  Each job
        trains as :meth:`train` would, checkpoints and cache entry included,
        down to its final checkpoint, which a fresh trainer here restores
        the way it restores a cache hit: so a trained job's working memory
        is gone before the next one starts.  Either way the histories,
        checkpoints and cache entries are bit-identical, and no worker
        outlives the call.

        Returns:
            One :class:`TrainedModel` per job, in job order.

        Raises:
            Whatever a job raises (e.g. ``FloatingPointError`` naming the
            round and step); no further job starts after it, and a
            worker that dies outright raises ``BrokenProcessPool``.
        """
        jobs = list(jobs)
        plans = [self._plan(job) for job in jobs]
        pending = [index for index, plan in enumerate(plans) if not plan.cache_hit]
        finished: Dict[int, Checkpoint] = {}
        self.split  # built once here, and inherited by forked workers

        def train(position: int) -> Checkpoint:
            index = pending[position]
            trained = self._train(jobs[index], plans[index])
            return trained.trainer.final_checkpoint(trained.history)

        def keep(position: int, checkpoint: Checkpoint) -> None:
            finished[pending[position]] = checkpoint

        parallel.fork_each(train, len(pending), parallel.available_workers(), keep)
        return [
            self._train(job, plan, finished.get(index))
            for index, (job, plan) in enumerate(zip(jobs, plans))
        ]

    # -- stage 3: evaluate ------------------------------------------------------------
    def evaluate(self, trained: TrainedModel, sequences) -> float:
        """Validation RMSE (dB) via the shared normalized-eval path."""
        return trained.trainer.evaluate(sequences)

    def predict_dbm(self, trained: TrainedModel, sequences):
        """Denormalized predictions via the shared normalized-eval path."""
        return trained.trainer.predict_dbm(sequences)


# -- stage 4: artifact ----------------------------------------------------------------


def write_artifact(artifact: Dict[str, object], path: str | os.PathLike) -> Path:
    """Write an artifact JSON atomically and return the final path."""
    return Path(
        atomic_write_text(path, json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    )


# -- experiment registry --------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: how to run it and how to summarize it.

    ``run(scale=..., dataset=..., options=..., **run_kwargs)`` produces the
    experiment's result object; ``metrics(result)`` flattens it into the
    scalar mapping of a sweep cell and of the ``run`` CLI's artifact, and
    ``figure(result)``, where set, is the figure's full JSON data (per-round
    curves and all), which ``run`` writes under the artifact's ``figure``.
    """

    name: str
    run: Callable[..., Any]
    metrics: Callable[[Any], Dict[str, float]]
    run_kwargs: Mapping[str, Any] = field(default_factory=dict)
    figure: Optional[Callable[[Any], Dict[str, Any]]] = None

    def run_cell(
        self,
        scale: ExperimentScale,
        dataset: Optional[DepthPowerDataset] = None,
        options: Optional[PipelineOptions] = None,
    ) -> Dict[str, float]:
        """Run the experiment and return its flattened metrics."""
        result = self.run(
            scale=scale, dataset=dataset, options=options, **dict(self.run_kwargs)
        )
        return {key: float(value) for key, value in self.metrics(result).items()}


def experiment_specs() -> Dict[str, ExperimentSpec]:
    """The experiment table: every experiment the sweep and ``run`` know.

    The runner modules are imported, and their runners looked up, at each
    call (lazily, to avoid import cycles): a runner swapped in its module,
    e.g. by a test's ``monkeypatch``, is the one every later cell runs.
    """
    from repro.experiments import (
        fig2_feature_maps,
        fig3a_learning_curves,
        fig3b_power_prediction,
        fig_compression_pareto,
        fig_fleet_scaling,
        table1_privacy_success,
    )

    return {
        "fig2": ExperimentSpec(
            name="fig2",
            run=fig2_feature_maps.run_fig2,
            metrics=fig2_feature_maps.result_metrics,
        ),
        "fig3a": ExperimentSpec(
            name="fig3a",
            run=fig3a_learning_curves.run_fig3a,
            metrics=fig3a_learning_curves.result_metrics,
        ),
        "fig3b": ExperimentSpec(
            name="fig3b",
            run=fig3b_power_prediction.run_fig3b,
            metrics=fig3b_power_prediction.result_metrics,
        ),
        "fleet": ExperimentSpec(
            name="fleet",
            run=fig_fleet_scaling.run_fleet_scaling,
            metrics=fig_fleet_scaling.result_metrics,
            # The sweep's historical fleet cell: N in {1, 2, 4}, both modes.
            run_kwargs={"ue_counts": (1, 2, 4)},
            figure=fig_fleet_scaling.FleetScalingResult.artifact,
        ),
        "pareto": ExperimentSpec(
            name="pareto",
            run=fig_compression_pareto.run_compression_pareto,
            metrics=fig_compression_pareto.result_metrics,
            figure=fig_compression_pareto.CompressionParetoResult.artifact,
        ),
        "table1": ExperimentSpec(
            name="table1",
            run=table1_privacy_success.run_table1,
            metrics=table1_privacy_success.result_metrics,
        ),
    }
