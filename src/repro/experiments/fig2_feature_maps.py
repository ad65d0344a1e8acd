"""Fig. 2 — raw depth images and CNN output images under different pooling.

The figure of the paper shows (a) raw depth images and the CNN output images
after (b) 1x1, (c) 4x4 and (d) 40x40 ("one-pixel") pooling, illustrating how
aggressive pooling destroys visual detail (and therefore privacy-relevant
content) while keeping a coarse occupancy signal.

The runner renders a handful of representative frames (one clear LoS frame,
one frame with a pedestrian approaching, one blocked frame when available),
pushes them through a UE-side CNN and reports, per pooling size, the
compressed images together with simple information statistics (spatial
variance and entropy of the transmitted representation).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dataset.generator import DepthPowerDataset
from repro.experiments.common import ExperimentScale
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.split.ue import UEClient


def shannon_entropy_bits(values: np.ndarray, bins: int = 32) -> float:
    """Empirical Shannon entropy (bits) of a set of values via histogramming."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot compute entropy of an empty array")
    if np.allclose(values, values[0]):
        return 0.0
    histogram, _ = np.histogram(values, bins=bins)
    probabilities = histogram / histogram.sum()
    nonzero = probabilities[probabilities > 0]
    return float(-(nonzero * np.log2(nonzero)).sum())


@dataclass
class PoolingVisualization:
    """Compressed representations and statistics for one pooling size."""

    pooling: int
    compressed_images: np.ndarray
    values_per_image: int
    mean_spatial_variance: float
    mean_entropy_bits: float


@dataclass
class Fig2Result:
    """Everything needed to regenerate Fig. 2."""

    frame_indices: List[int]
    raw_images: np.ndarray
    cnn_output_images: np.ndarray
    per_pooling: Dict[int, PoolingVisualization] = field(default_factory=dict)

    def summary_rows(self) -> List[dict]:
        """One row per pooling size, mirroring the figure panels."""
        rows = []
        for pooling in sorted(self.per_pooling):
            item = self.per_pooling[pooling]
            rows.append(
                {
                    "pooling": f"{pooling}x{pooling}",
                    "values_per_image": item.values_per_image,
                    "mean_spatial_variance": item.mean_spatial_variance,
                    "mean_entropy_bits": item.mean_entropy_bits,
                }
            )
        return rows

    def format_table(self) -> str:
        header = (
            f"{'pooling':>10s} {'values/img':>11s} {'variance':>10s} {'entropy':>9s}"
        )
        lines = [header]
        for row in self.summary_rows():
            lines.append(
                f"{row['pooling']:>10s} {row['values_per_image']:>11d} "
                f"{row['mean_spatial_variance']:>10.4f} "
                f"{row['mean_entropy_bits']:>9.3f}"
            )
        return "\n".join(lines)


def select_representative_frames(
    dataset: DepthPowerDataset, count: int = 4
) -> List[int]:
    """Pick frames that span the interesting conditions (LoS, approach, blocked)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    blocked_indices = np.flatnonzero(dataset.line_of_sight_blocked)
    clear_indices = np.flatnonzero(~dataset.line_of_sight_blocked)
    picks: List[int] = []
    if len(clear_indices):
        picks.append(int(clear_indices[0]))
    if len(blocked_indices):
        picks.append(int(blocked_indices[len(blocked_indices) // 2]))
        # A frame a few steps before the blockage: the "approach" signature.
        approach = max(int(blocked_indices[0]) - 3, 0)
        picks.append(approach)
    while len(picks) < count and len(dataset):
        picks.append(int(len(dataset) * len(picks) // (count + 1)))
    return sorted(set(picks))[:count]


def run_fig2(
    scale: Optional[ExperimentScale] = None,
    dataset: Optional[DepthPowerDataset] = None,
    poolings: Optional[tuple] = None,
    options: Optional[PipelineOptions] = None,
) -> Fig2Result:
    """Regenerate the content of Fig. 2 at the requested scale.

    Fig. 2 involves no training — the pipeline contributes its dataset stage
    (and dataset caching when ``options`` enables it).
    """
    pipeline = ExperimentPipeline(scale, options, dataset=dataset)
    scale = pipeline.scale
    dataset = pipeline.dataset
    poolings = poolings or scale.valid_poolings()

    frame_indices = select_representative_frames(dataset)
    raw_images = dataset.images[frame_indices]

    model_config = scale.base_model_config()
    result = Fig2Result(
        frame_indices=frame_indices,
        raw_images=raw_images,
        cnn_output_images=np.empty(0),
    )

    # The CNN body is identical across pooling sizes (the pooling layer is the
    # only difference), so reuse one client per pooling configuration but keep
    # the same initialization seed for comparability.
    full_resolution_client = UEClient(
        model_config.with_pooling(1), seed=scale.seed
    )
    result.cnn_output_images = full_resolution_client.output_images(raw_images)

    for pooling in poolings:
        client = UEClient(model_config.with_pooling(pooling), seed=scale.seed)
        compressed = client.compressed_images(raw_images)
        result.per_pooling[pooling] = PoolingVisualization(
            pooling=pooling,
            compressed_images=compressed,
            values_per_image=int(compressed.shape[1] * compressed.shape[2]),
            mean_spatial_variance=float(
                np.mean([image.var() for image in compressed])
            ),
            mean_entropy_bits=float(
                np.mean([shannon_entropy_bits(image) for image in compressed])
            ),
        )
    return result


def result_metrics(result: Fig2Result) -> dict:
    """Flatten a :class:`Fig2Result` into sweep-cell metrics."""
    metrics: dict = {}
    for pooling, item in result.per_pooling.items():
        prefix = f"pool_{pooling}x{pooling}"
        metrics[f"{prefix}/values_per_image"] = float(item.values_per_image)
        metrics[f"{prefix}/mean_spatial_variance"] = float(item.mean_spatial_variance)
        metrics[f"{prefix}/mean_entropy_bits"] = float(item.mean_entropy_bits)
    return metrics
