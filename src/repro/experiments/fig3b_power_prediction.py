"""Fig. 3b — predicted received power vs ground truth on a validation window.

The paper plots a ~3 s validation window containing LoS/non-LoS transitions
and overlays the predictions of Img+RF, Img-only and RF-only against the
ground truth.  The qualitative observations are: RF-only tracks the LoS level
but misses the sharp transitions; Img-only anticipates transitions but is less
accurate in steady state; Img+RF is closest to the ground truth overall.

The runner trains the three schemes, selects a validation window containing a
blockage event, and returns the aligned time series plus per-scheme error
statistics (overall RMSE and RMSE restricted to transition regions).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dataset.generator import DepthPowerDataset
from repro.dataset.sequences import SequenceDataset
from repro.dataset.splits import TrainValidationSplit
from repro.experiments.common import ExperimentScale
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.nn.metrics import root_mean_squared_error


@dataclass
class SchemePrediction:
    """Predictions of one scheme over the plotted window."""

    scheme: str
    predictions_dbm: np.ndarray
    rmse_db: float
    transition_rmse_db: float


@dataclass
class Fig3bResult:
    """Aligned prediction traces for the plotted validation window."""

    times_s: np.ndarray
    ground_truth_dbm: np.ndarray
    transition_mask: np.ndarray
    predictions: Dict[str, SchemePrediction] = field(default_factory=dict)

    def summary_rows(self) -> List[dict]:
        rows = []
        for name, item in self.predictions.items():
            rows.append(
                {
                    "scheme": name,
                    "rmse_db": item.rmse_db,
                    "transition_rmse_db": item.transition_rmse_db,
                }
            )
        return rows

    def format_table(self) -> str:
        header = f"{'scheme':<16s} {'RMSE (dB)':>10s} {'transition RMSE':>16s}"
        lines = [header]
        for row in self.summary_rows():
            lines.append(
                f"{row['scheme']:<16s} {row['rmse_db']:>10.2f} "
                f"{row['transition_rmse_db']:>16.2f}"
            )
        return "\n".join(lines)

    def best_overall(self) -> str:
        """Scheme with the lowest RMSE over the window."""
        return min(self.predictions, key=lambda n: self.predictions[n].rmse_db)


def transition_mask_from_truth(
    powers_dbm: np.ndarray, drop_threshold_db: float = 5.0, window: int = 4
) -> np.ndarray:
    """Mark samples near abrupt power changes (LoS <-> non-LoS transitions)."""
    powers = np.asarray(powers_dbm, dtype=np.float64)
    if powers.ndim != 1:
        raise ValueError("powers_dbm must be 1-D")
    mask = np.zeros(len(powers), dtype=bool)
    if len(powers) < 2:
        return mask
    jumps = np.abs(np.diff(powers)) >= drop_threshold_db
    for index in np.flatnonzero(jumps):
        low = max(0, index - window)
        high = min(len(powers), index + window + 1)
        mask[low:high] = True
    return mask


def select_plot_window(
    validation: SequenceDataset, window_length: int = 90
) -> np.ndarray:
    """Pick a contiguous validation window that contains a blockage event.

    Returns the positions (into the validation sequence dataset) forming the
    window; falls back to the start of the validation set when no deep fade is
    found.
    """
    if len(validation) == 0:
        raise ValueError("validation set is empty")
    window_length = min(window_length, len(validation))
    targets = validation.targets
    median = np.median(targets)
    deep = np.flatnonzero(targets < median - 8.0)
    if len(deep):
        center = int(deep[len(deep) // 2])
    else:
        center = int(np.argmin(targets))
    start = max(0, center - window_length // 2)
    stop = min(len(validation), start + window_length)
    start = max(0, stop - window_length)
    return np.arange(start, stop)


def run_fig3b(
    scale: Optional[ExperimentScale] = None,
    dataset: Optional[DepthPowerDataset] = None,
    split: Optional[TrainValidationSplit] = None,
    window_length: int = 90,
    options: Optional[PipelineOptions] = None,
) -> Fig3bResult:
    """Train Img+RF, Img-only and RF-only and compare their prediction traces."""
    pipeline = ExperimentPipeline(scale, options, dataset=dataset, split=split)
    scale = pipeline.scale
    split = pipeline.split

    window_positions = select_plot_window(split.validation, window_length)
    window = split.validation.subset(window_positions)
    truth = window.targets
    times = window.target_times_s

    schemes = {
        "Img+RF": scale.base_model_config(),
        "Img-only": scale.base_model_config().with_pooling(scale.image_size),
        "RF-only": scale.base_model_config(),
    }
    # Adjust modality flags per scheme.
    from dataclasses import replace as _replace

    schemes["Img-only"] = _replace(schemes["Img-only"], use_rf=False)
    schemes["RF-only"] = _replace(schemes["RF-only"], use_image=False)

    result = Fig3bResult(
        times_s=times,
        ground_truth_dbm=truth,
        transition_mask=transition_mask_from_truth(truth),
    )
    jobs = [pipeline.split_job(name, config) for name, config in schemes.items()]
    models = pipeline.train_all(jobs)
    while models:
        # Each model goes before the next one predicts, which then reuses
        # its freed inference buffers instead of faulting in fresh pages.
        trained = models.pop(0)
        predictions = pipeline.predict_dbm(trained, window)
        overall = root_mean_squared_error(predictions, truth)
        if result.transition_mask.any():
            transition = root_mean_squared_error(
                predictions[result.transition_mask], truth[result.transition_mask]
            )
        else:
            transition = overall
        result.predictions[trained.key] = SchemePrediction(
            scheme=trained.key,
            predictions_dbm=predictions,
            rmse_db=overall,
            transition_rmse_db=transition,
        )
    return result


def result_metrics(result: Fig3bResult) -> dict:
    """Flatten a :class:`Fig3bResult` into sweep-cell metrics."""
    metrics: dict = {}
    for name, prediction in result.predictions.items():
        metrics[f"{name}/rmse_db"] = float(prediction.rmse_db)
        metrics[f"{name}/transition_rmse_db"] = float(prediction.transition_rmse_db)
    return metrics
