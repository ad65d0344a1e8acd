"""Compression Pareto — accuracy vs simulated wall-clock over cut-layer codecs.

The paper moves raw float32 cut activations over the 60 GHz link; the codec
layer (:mod:`repro.split.codecs`) can quantize or sparsify them instead.
This experiment trains the same Img+RF split model once per codec and
reports, per codec:

* the validation-RMSE-vs-simulated-time learning curve;
* the aggregate communication statistics (``comm_*`` keys, from
  :class:`repro.channel.arq.ArqStatistics`);
* the sized per-step uplink payload in bits, so the accuracy/latency
  trade-off can be read directly off the artifact.

The qualitative expectation: uint8 is on the Pareto front (same accuracy,
~4x fewer uplink bits), int4 and top-k trade a little accuracy for much
shorter steps.

CLI::

    python -m repro.experiments.fig_compression_pareto \
        --scale fast --codecs identity uint8 topk \
        --output compression-pareto.json

The artifact contains only simulated quantities, so two runs with the same
seed are byte-identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.channel.payload import PayloadModel
from repro.dataset.generator import DepthPowerDataset
from repro.dataset.splits import TrainValidationSplit
from repro.experiments.common import ExperimentScale, scale_from_name
from repro.experiments.pipeline import (
    ExperimentPipeline,
    PipelineOptions,
    add_run_state_arguments,
    options_from_args,
    write_artifact,
)
from repro.fleet.trainer import FleetHistory
from repro.split.codecs import CODEC_NAMES, codec_from_name

#: Version of the compression-Pareto artifact JSON layout.
COMPRESSION_ARTIFACT_SCHEMA_VERSION = 1

#: Codecs exercised by default (identity is the paper's float32 baseline).
DEFAULT_CODECS = ("identity", "uint8", "int4", "topk")


@dataclass
class CompressionParetoResult:
    """Learning curves and payload accounting for every codec cell."""

    scale: ExperimentScale
    codecs: Tuple[str, ...]
    histories: Dict[str, FleetHistory] = field(default_factory=dict)
    uplink_payload_bits: Dict[str, float] = field(default_factory=dict)

    def history(self, codec: str) -> FleetHistory:
        return self.histories[codec]

    def artifact(self) -> dict:
        """JSON artifact: per-codec RMSE curves, comm_* stats, payload bits."""
        cells: Dict[str, dict] = {}
        for codec in self.codecs:
            history = self.histories[codec]
            communication = history.communication
            cell = {
                "codec": codec,
                "scheme": history.scheme,
                "epochs": len(history.records),
                "rmse_curve_db": [
                    record.validation_rmse_db for record in history.records
                ],
                "elapsed_s": [record.elapsed_s for record in history.records],
                "final_rmse_db": history.final_rmse_db,
                "best_rmse_db": history.best_rmse_db,
                "reached_target": history.reached_target,
                "total_elapsed_s": history.total_elapsed_s,
                "lost_steps": sum(
                    record.lost_steps for record in history.records
                ),
                "uplink_payload_bits": self.uplink_payload_bits[codec],
            }
            if communication is not None:
                cell.update(
                    {
                        f"comm_{key}": value
                        for key, value in communication.as_dict().items()
                    }
                )
            cells[codec] = cell
        return {
            "schema_version": COMPRESSION_ARTIFACT_SCHEMA_VERSION,
            "experiment": "fig_compression_pareto",
            "codecs": list(self.codecs),
            "seed": self.scale.seed,
            "scenario": self.scale.scenario,
            "cells": cells,
        }

    def format_table(self) -> str:
        header = (
            f"{'codec':<10s} {'final RMSE':>11s} {'best RMSE':>10s} "
            f"{'sim time':>9s} {'epochs':>7s} {'uplink bits':>12s} {'lost':>5s}"
        )
        lines = [header]
        for codec in self.codecs:
            history = self.histories[codec]
            lines.append(
                f"{codec:<10s} "
                f"{history.final_rmse_db:>11.2f} "
                f"{history.best_rmse_db:>10.2f} "
                f"{history.total_elapsed_s:>9.2f} "
                f"{len(history.records):>7d} "
                f"{self.uplink_payload_bits[codec]:>12.0f} "
                f"{sum(r.lost_steps for r in history.records):>5d}"
            )
        return "\n".join(lines)


def _sized_uplink_bits(model_config, batch_size: int, codec_name: str) -> float:
    """The codec's deterministic per-step uplink payload bound, in bits."""
    payload = PayloadModel.from_model_config(model_config)
    elements = payload.values_per_image * payload.sequence_length * batch_size
    codec = codec_from_name(
        codec_name,
        bits_per_value=model_config.bits_per_value,
        topk_fraction=model_config.codec_topk_fraction,
    )
    return float(codec.sized_payload_bits(elements))


def run_compression_pareto(
    scale: Optional[ExperimentScale] = None,
    codecs: Sequence[str] = DEFAULT_CODECS,
    topk_fraction: Optional[float] = None,
    max_epochs: Optional[int] = None,
    dataset: Optional[DepthPowerDataset] = None,
    split: Optional[TrainValidationSplit] = None,
    options: Optional[PipelineOptions] = None,
) -> CompressionParetoResult:
    """Train the Img+RF split model once per cut-layer codec.

    Args:
        scale: experiment scale (default: :meth:`ExperimentScale.fast`).
        codecs: codec names to run (subset of
            :data:`repro.split.codecs.CODEC_NAMES`).
        topk_fraction: kept fraction for the ``topk`` cells (``None`` = the
            model-config default).
        max_epochs: cap on epochs per cell (``None`` = the scale's budget).
        dataset: pre-built dataset (split is derived from it when no split
            is given).
        split: pre-built train/validation split (regenerated when omitted).
        options: run-state persistence knobs (checkpointing, resume, trained
            model cache) handled by the shared pipeline.
    """
    pipeline = ExperimentPipeline(scale, options, dataset=dataset, split=split)
    scale = pipeline.scale
    codecs = tuple(str(codec).lower() for codec in codecs)
    if not codecs:
        raise ValueError("codecs must be a non-empty list")
    unknown = set(codecs) - set(CODEC_NAMES)
    if unknown:
        raise ValueError(f"unknown codecs: {sorted(unknown)}")

    result = CompressionParetoResult(scale=scale, codecs=codecs)
    batch_size = scale.training_config().batch_size
    for codec in codecs:
        overrides: dict = {"codec": codec}
        if topk_fraction is not None and codec == "topk":
            overrides["codec_topk_fraction"] = topk_fraction
        model_config = dataclasses.replace(scale.base_model_config(), **overrides)
        fit_kwargs = {} if max_epochs is None else {"max_rounds": max_epochs}
        job = pipeline.split_job(codec, model_config, **fit_kwargs)
        result.histories[codec] = pipeline.train(job).history
        result.uplink_payload_bits[codec] = _sized_uplink_bits(
            model_config, batch_size, codec
        )
    return result


def result_metrics(result: CompressionParetoResult) -> dict:
    """Flatten a :class:`CompressionParetoResult` into sweep-cell metrics."""
    metrics: dict = {}
    for codec in result.codecs:
        history = result.histories[codec]
        metrics[f"{codec}/final_rmse_db"] = float(history.final_rmse_db)
        metrics[f"{codec}/best_rmse_db"] = float(history.best_rmse_db)
        metrics[f"{codec}/elapsed_s"] = float(history.total_elapsed_s)
        metrics[f"{codec}/uplink_payload_bits"] = float(
            result.uplink_payload_bits[codec]
        )
        communication = history.communication
        if communication is not None and communication.steps:
            metrics[f"{codec}/comm_mean_slots_per_step"] = float(
                communication.mean_slots_per_step
            )
            metrics[f"{codec}/comm_mean_step_latency_s"] = float(
                communication.mean_step_latency_s
            )
    return metrics


# -- CLI ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fig_compression_pareto",
        description="Compression Pareto: accuracy vs time over cut-layer codecs.",
    )
    parser.add_argument(
        "--scale",
        default="fast",
        choices=("paper", "fast", "smoke"),
        help="experiment scale (default: fast)",
    )
    parser.add_argument(
        "--codecs",
        nargs="+",
        default=list(DEFAULT_CODECS),
        choices=CODEC_NAMES,
        help="cut-layer codecs to run (default: all)",
    )
    parser.add_argument(
        "--topk-fraction",
        type=float,
        default=None,
        metavar="FRACTION",
        help="kept fraction for the topk cells (default: model default)",
    )
    parser.add_argument(
        "--max-epochs",
        type=int,
        default=None,
        metavar="E",
        help="cap epochs per cell (default: the scale's epoch budget)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="artifact JSON path (default: compression-pareto-<scale>.json)",
    )
    add_run_state_arguments(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    scale = scale_from_name(args.scale)
    result = run_compression_pareto(
        scale=scale,
        codecs=args.codecs,
        topk_fraction=args.topk_fraction,
        max_epochs=args.max_epochs,
        options=options_from_args(args),
    )
    output = args.output or f"compression-pareto-{args.scale}.json"
    write_artifact(result.artifact(), output)
    try:
        print(result.format_table())
        print(f"artifact written to {output}")
    except BrokenPipeError:  # e.g. `... | head`; the artifact is on disk
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
