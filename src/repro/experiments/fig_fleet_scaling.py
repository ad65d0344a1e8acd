"""Fleet scaling — RMSE-vs-time and medium-occupancy curves over fleet size N.

The paper trains one UE; this experiment trains fleets of N UEs over one
shared medium in both fleet modes (rotation split learning and splitfed-style
parallel averaging) and reports, per N:

* the validation-RMSE-vs-simulated-time learning curve;
* the merged per-UE communication statistics (``comm_*`` keys, from
  :meth:`repro.channel.arq.ArqStatistics.merge`);
* the medium occupancy fraction — how much of the simulated wall-clock the
  shared channel carried slots.

The qualitative expectation: rotation round time grows linearly in N (turns
are serial), while a parallel-average round amortizes compute across the
fleet and grows only with the serialized communication — its round time is
sublinear in N and its medium occupancy climbs toward 1.

CLI (the artifact's ``figure`` is :meth:`FleetScalingResult.artifact`)::

    python -m repro.experiments.run --experiment fleet \
        --scale fast --ues 1 2 4 --modes rotation parallel_average \
        --output fleet-scaling.json

The figure contains only simulated quantities, so two runs with the same
seed are byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.dataset.generator import DepthPowerDataset
from repro.dataset.splits import TrainValidationSplit
from repro.experiments.common import ExperimentScale
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.fleet import FLEET_MODES, FleetConfig, FleetHistory
from repro.split.config import ExperimentConfig

#: Version of the fleet-scaling artifact JSON layout.
FLEET_ARTIFACT_SCHEMA_VERSION = 1

#: Fleet sizes exercised by default (the paper's protocol is the N=1 column).
DEFAULT_UE_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class FleetScalingResult:
    """Learning curves and medium accounting for every (mode, N) cell."""

    scale: ExperimentScale
    scheduler: str
    ue_counts: Tuple[int, ...]
    modes: Tuple[str, ...]
    histories: Dict[Tuple[str, int], FleetHistory] = field(default_factory=dict)

    def history(self, mode: str, num_ues: int) -> FleetHistory:
        return self.histories[(mode, num_ues)]

    def artifact(self) -> dict:
        """JSON artifact: per-N RMSE curves, merged comm_* stats, occupancy."""
        cells: Dict[str, Dict[str, dict]] = {mode: {} for mode in self.modes}
        for (mode, num_ues), history in self.histories.items():
            communication = history.communication
            cell = {
                "num_ues": num_ues,
                "scheme": history.scheme,
                "scheduler": history.scheduler,
                "rounds": len(history.records),
                "rmse_curve_db": [
                    record.validation_rmse_db for record in history.records
                ],
                "elapsed_s": [record.elapsed_s for record in history.records],
                "round_duration_s": [
                    record.round_duration_s for record in history.records
                ],
                "medium_occupancy_per_round": [
                    record.medium_occupancy for record in history.records
                ],
                "final_rmse_db": history.final_rmse_db,
                "best_rmse_db": history.best_rmse_db,
                "reached_target": history.reached_target,
                "total_elapsed_s": history.total_elapsed_s,
                "medium_busy_s": history.medium_busy_s,
                "medium_occupancy": history.medium_occupancy,
                "lost_steps": sum(
                    record.lost_steps for record in history.records
                ),
            }
            if communication is not None:
                cell.update(
                    {
                        f"comm_{key}": value
                        for key, value in communication.as_dict().items()
                    }
                )
            cells[mode][str(num_ues)] = cell
        return {
            "schema_version": FLEET_ARTIFACT_SCHEMA_VERSION,
            "experiment": "fig_fleet_scaling",
            "scheduler": self.scheduler,
            "ue_counts": list(self.ue_counts),
            "modes": list(self.modes),
            "seed": self.scale.seed,
            "scenario": self.scale.scenario,
            "cells": cells,
        }

    def format_table(self) -> str:
        header = (
            f"{'mode':<17s} {'N':>3s} {'final RMSE':>11s} {'best RMSE':>10s} "
            f"{'sim time':>9s} {'rounds':>7s} {'occupancy':>10s} {'lost':>5s}"
        )
        lines = [header]
        for mode in self.modes:
            for num_ues in self.ue_counts:
                history = self.histories[(mode, num_ues)]
                lines.append(
                    f"{mode:<17s} {num_ues:>3d} "
                    f"{history.final_rmse_db:>11.2f} "
                    f"{history.best_rmse_db:>10.2f} "
                    f"{history.total_elapsed_s:>9.2f} "
                    f"{len(history.records):>7d} "
                    f"{history.medium_occupancy:>10.3f} "
                    f"{sum(r.lost_steps for r in history.records):>5d}"
                )
        return "\n".join(lines)


def run_fleet_scaling(
    scale: Optional[ExperimentScale] = None,
    split: Optional[TrainValidationSplit] = None,
    ue_counts: Sequence[int] = DEFAULT_UE_COUNTS,
    modes: Sequence[str] = FLEET_MODES,
    scheduler: str = "round_robin",
    placement_jitter: Optional[float] = None,
    max_rounds: Optional[int] = None,
    dataset: Optional[DepthPowerDataset] = None,
    options: Optional[PipelineOptions] = None,
) -> FleetScalingResult:
    """Train a fleet at every requested size in every requested mode.

    Args:
        scale: experiment scale (default: :meth:`ExperimentScale.fast`).
        split: pre-built train/validation split (regenerated when omitted).
        ue_counts: fleet sizes ``N`` to run.
        modes: fleet modes (subset of :data:`repro.fleet.FLEET_MODES`).
        scheduler: medium-scheduler name for the parallel-average cells.
        placement_jitter: per-UE link-distance jitter fraction (``None`` =
            the fleet default).
        max_rounds: cap on rounds per cell (``None`` = the scale's epoch
            budget).
        dataset: pre-built dataset (split is derived from it when no split
            is given).
        options: run-state persistence knobs (checkpointing, resume, trained
            model cache) handled by the shared pipeline.
    """
    pipeline = ExperimentPipeline(scale, options, dataset=dataset, split=split)
    scale = pipeline.scale
    ue_counts = tuple(int(count) for count in ue_counts)
    if not ue_counts or any(count < 1 for count in ue_counts):
        raise ValueError("ue_counts must be a non-empty list of sizes >= 1")
    modes = tuple(modes)
    unknown = set(modes) - set(FLEET_MODES)
    if unknown:
        raise ValueError(f"unknown fleet modes: {sorted(unknown)}")

    config = ExperimentConfig.for_scenario(
        scale.scenario,
        model=scale.base_model_config(),
        training=scale.training_config(),
    )
    result = FleetScalingResult(
        scale=scale, scheduler=scheduler, ue_counts=ue_counts, modes=modes
    )
    cells = [(mode, num_ues) for mode in modes for num_ues in ue_counts]
    jobs = []
    for mode, num_ues in cells:
        fleet_kwargs = dict(num_ues=num_ues, mode=mode, scheduler=scheduler)
        if placement_jitter is not None:
            fleet_kwargs["placement_jitter"] = placement_jitter
        jobs.append(
            pipeline.fleet_job(
                f"{mode}/n{num_ues}",
                FleetConfig(**fleet_kwargs),
                config,
                max_rounds=max_rounds,
            )
        )
    for cell, trained in zip(cells, pipeline.train_all(jobs)):
        result.histories[cell] = trained.history
    return result


def result_metrics(result: FleetScalingResult) -> dict:
    """Flatten a :class:`FleetScalingResult` into sweep-cell metrics."""
    metrics: dict = {}
    for (mode, num_ues), history in result.histories.items():
        prefix = f"{mode}/n{num_ues}"
        metrics[f"{prefix}/final_rmse_db"] = float(history.final_rmse_db)
        metrics[f"{prefix}/best_rmse_db"] = float(history.best_rmse_db)
        metrics[f"{prefix}/elapsed_s"] = float(history.total_elapsed_s)
        metrics[f"{prefix}/rounds"] = float(len(history.records))
        metrics[f"{prefix}/medium_occupancy"] = float(history.medium_occupancy)
        communication = history.communication
        if communication is not None and communication.steps:
            metrics[f"{prefix}/comm_mean_slots_per_step"] = float(
                communication.mean_slots_per_step
            )
            metrics[f"{prefix}/comm_mean_step_latency_s"] = float(
                communication.mean_step_latency_s
            )
    return metrics
