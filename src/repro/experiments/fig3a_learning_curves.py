"""Fig. 3a — learning curves (validation RMSE vs elapsed training time).

The paper compares five schemes: Img+RF with one-pixel pooling, Img+RF with
4x4 pooling, Img-only with both poolings, and RF-only.  The x axis is the
*simulated elapsed training time*, which includes the transmission time of the
cut-layer payloads over the wireless SL link, so heavier payloads (weak
pooling) slow convergence per unit time.

Expected qualitative shape (checked by the benchmark harness):

* RF-only converges fastest (no communication, tiny inputs) but plateaus at a
  higher RMSE (~3.7 dB in the paper);
* Img+RF with one-pixel pooling reaches the lowest RMSE in the least time;
* the 4x4-pooling variants pay more communication time per step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dataset.generator import DepthPowerDataset
from repro.dataset.splits import TrainValidationSplit
from repro.experiments.common import ExperimentScale, scheme_model_configs
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.fleet.trainer import FleetHistory


@dataclass
class Fig3aResult:
    """Learning curves for every scheme."""

    scale: ExperimentScale
    histories: Dict[str, FleetHistory] = field(default_factory=dict)

    def summary_rows(self) -> List[dict]:
        rows = []
        for name, history in self.histories.items():
            communication = history.communication
            rows.append(
                {
                    "scheme": name,
                    "final_rmse_db": history.final_rmse_db,
                    "best_rmse_db": history.best_rmse_db,
                    "elapsed_s": history.total_elapsed_s,
                    "epochs": len(history.records),
                    "reached_target": history.reached_target,
                    "lost_steps": sum(r.lost_steps for r in history.records),
                    "mean_slots_per_step": (
                        communication.mean_slots_per_step if communication else 0.0
                    ),
                    "mean_step_latency_s": (
                        communication.mean_step_latency_s if communication else 0.0
                    ),
                }
            )
        return rows

    def format_table(self) -> str:
        header = (
            f"{'scheme':<22s} {'final RMSE':>11s} {'best RMSE':>10s} "
            f"{'sim time':>9s} {'epochs':>7s} {'slots/step':>11s} "
            f"{'lost':>5s} {'target?':>8s}"
        )
        lines = [header]
        for row in self.summary_rows():
            lines.append(
                f"{row['scheme']:<22s} {row['final_rmse_db']:>11.2f} "
                f"{row['best_rmse_db']:>10.2f} {row['elapsed_s']:>9.2f} "
                f"{row['epochs']:>7d} {row['mean_slots_per_step']:>11.2f} "
                f"{row['lost_steps']:>5d} {str(row['reached_target']):>8s}"
            )
        return "\n".join(lines)

    def best_scheme(self) -> str:
        """Scheme with the lowest best validation RMSE."""
        return min(
            self.histories, key=lambda name: self.histories[name].best_rmse_db
        )


def run_fig3a(
    scale: Optional[ExperimentScale] = None,
    split: Optional[TrainValidationSplit] = None,
    schemes: Optional[List[str]] = None,
    dataset: Optional[DepthPowerDataset] = None,
    options: Optional[PipelineOptions] = None,
) -> Fig3aResult:
    """Train every scheme and collect the learning curves.

    Args:
        scale: experiment scale (default: :meth:`ExperimentScale.fast`).
        split: pre-built train/validation split (regenerated when omitted).
        schemes: restrict to a subset of scheme names (default: all five).
        dataset: pre-built dataset (split is derived from it when no split
            is given).
        options: run-state persistence knobs (checkpointing, resume, trained
            model cache) handled by the shared pipeline.
    """
    pipeline = ExperimentPipeline(scale, options, dataset=dataset, split=split)
    scale = pipeline.scale
    configs = scheme_model_configs(scale)
    if schemes is not None:
        unknown = set(schemes) - set(configs)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        configs = {name: configs[name] for name in schemes}

    jobs = [pipeline.split_job(name, config) for name, config in configs.items()]
    result = Fig3aResult(scale=scale)
    for trained in pipeline.train_all(jobs):
        result.histories[trained.key] = trained.history
    return result


def result_metrics(result: Fig3aResult) -> dict:
    """Flatten a :class:`Fig3aResult` into sweep-cell metrics (schema v2)."""
    metrics: dict = {}
    for name, history in result.histories.items():
        metrics[f"{name}/final_rmse_db"] = float(history.final_rmse_db)
        metrics[f"{name}/best_rmse_db"] = float(history.best_rmse_db)
        metrics[f"{name}/elapsed_s"] = float(history.total_elapsed_s)
        metrics[f"{name}/epochs"] = float(len(history.records))
        metrics[f"{name}/lost_steps"] = float(
            sum(record.lost_steps for record in history.records)
        )
        communication = history.communication
        if communication is not None and communication.steps:
            metrics[f"{name}/comm_mean_slots_per_step"] = float(
                communication.mean_slots_per_step
            )
            metrics[f"{name}/comm_slots_std"] = float(communication.slots_std)
            metrics[f"{name}/comm_mean_step_latency_s"] = float(
                communication.mean_step_latency_s
            )
            metrics[f"{name}/comm_downlink_skipped"] = float(
                communication.downlink_skipped
            )
    return metrics
