"""Per-pooling Table 1: the test oracle of ``run_table1``.

:func:`run_table1_oracle` computes Table 1 the way each pooling would on its
own: a fresh ``UEClient`` per pooling runs its CNN and compressor
(``compressed_images``), the leakage evaluator embeds the raw images again
for every pooling, and every per-sample correlation is one 1-D
:func:`safe_correlation` call.  ``run_table1`` (one CNN pass, one raw-image
embedding, row-wise correlations) must match it bit for bit.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.channel.payload import PayloadModel
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.table1_privacy_success import (
    Table1Result,
    Table1Row,
    success_probability_for_pooling,
)
from repro.privacy.leakage import (
    LeakageResult,
    PrivacyLeakageEvaluator,
    _standardize_set,
    upsample_feature_maps,
)
from repro.privacy.mds import classical_mds, pairwise_distances
from repro.split.ue import UEClient
from repro.utils.seeding import as_generator


def safe_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two 1-D vectors; 0 when either is constant."""
    a = a - a.mean()
    b = b - b.mean()
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(a @ b / (norm_a * norm_b))


def evaluate_one(
    evaluator: PrivacyLeakageEvaluator,
    raw_images: np.ndarray,
    transmitted_maps: np.ndarray,
) -> LeakageResult:
    """MDS leakage of one transmitted map, both sides embedded from scratch."""
    raw_images = np.asarray(raw_images, dtype=np.float64)
    transmitted_maps = np.asarray(transmitted_maps, dtype=np.float64)
    indices = evaluator._subsample(len(raw_images))
    raw = raw_images[indices]
    reconstructions = upsample_feature_maps(
        transmitted_maps[indices], raw_images.shape[1:]
    )
    count = len(raw)
    raw_flat = _standardize_set(raw.reshape(count, -1))
    rec_flat = _standardize_set(reconstructions.reshape(count, -1))
    dimensions = min(evaluator.n_components, count - 1)
    raw_embedding, _ = classical_mds(pairwise_distances(raw_flat), dimensions)
    rec_embedding, _ = classical_mds(pairwise_distances(rec_flat), dimensions)
    raw_distances = pairwise_distances(raw_embedding)
    rec_distances = pairwise_distances(rec_embedding)

    similarity = np.zeros(count)
    off_diagonal = ~np.eye(count, dtype=bool)
    for index in range(count):
        similarity[index] = safe_correlation(
            raw_distances[index][off_diagonal[index]],
            rec_distances[index][off_diagonal[index]],
        )
    similarity = np.clip(similarity, 0.0, 1.0)
    return LeakageResult(
        leakage=float(similarity.mean()),
        per_sample_similarity=similarity,
        mds_dimensions=evaluator.n_components,
        num_samples=count,
    )


def correlation_leakage_loop(
    raw_images: np.ndarray, transmitted_maps: np.ndarray
) -> float:
    """``correlation_leakage``, one sample at a time."""
    raw_images = np.asarray(raw_images, dtype=np.float64)
    transmitted_maps = np.asarray(transmitted_maps, dtype=np.float64)
    reconstructions = upsample_feature_maps(transmitted_maps, raw_images.shape[1:])
    correlations = []
    for raw, reconstruction in zip(raw_images, reconstructions):
        raw_flat = raw.ravel() - raw.mean()
        rec_flat = reconstruction.ravel() - reconstruction.mean()
        raw_norm = np.linalg.norm(raw_flat)
        rec_norm = np.linalg.norm(rec_flat)
        if raw_norm == 0.0 or rec_norm == 0.0:
            correlations.append(0.0)
            continue
        correlations.append(float(abs(raw_flat @ rec_flat) / (raw_norm * rec_norm)))
    return float(np.mean(correlations)) if correlations else 0.0


def run_table1_oracle(
    scale,
    dataset,
    poolings: Optional[tuple] = None,
    batch_size: int = 64,
    num_leakage_images: int = 120,
) -> Tuple[Table1Result, Dict[int, LeakageResult]]:
    """Table 1 computed pooling by pooling, and each pooling's leakage result."""
    pipeline = ExperimentPipeline(scale, dataset=dataset)
    scale = pipeline.scale
    channel = scale.resolve_scenario().channel
    dataset = pipeline.dataset
    poolings = poolings or scale.valid_poolings()

    rng = as_generator(scale.seed)
    candidate_indices = np.flatnonzero(dataset.line_of_sight_blocked)
    if len(candidate_indices) < num_leakage_images:
        extra = np.setdiff1d(np.arange(len(dataset)), candidate_indices)
        rng.shuffle(extra)
        candidate_indices = np.concatenate(
            [candidate_indices, extra[: num_leakage_images - len(candidate_indices)]]
        )
    elif len(candidate_indices) > num_leakage_images:
        candidate_indices = rng.choice(
            candidate_indices, size=num_leakage_images, replace=False
        )
    raw_images = dataset.images[np.sort(candidate_indices)]

    evaluator = PrivacyLeakageEvaluator(seed=scale.seed)
    result = Table1Result(batch_size=batch_size)
    leakages: Dict[int, LeakageResult] = {}
    model_config = scale.base_model_config()
    for pooling in poolings:
        client = UEClient(model_config.with_pooling(pooling), seed=scale.seed)
        transmitted = client.compressed_images(raw_images)
        leakages[pooling] = evaluate_one(evaluator, raw_images, transmitted)
        payload = PayloadModel(
            image_height=scale.image_size,
            image_width=scale.image_size,
            pooling_height=pooling,
            pooling_width=pooling,
        )
        equivalent_pooling = int(round(40 * pooling / scale.image_size)) or 1
        success = success_probability_for_pooling(
            equivalent_pooling if 40 % equivalent_pooling == 0 else pooling,
            image_size=40,
            batch_size=batch_size,
            channel=channel,
        )
        expected_slots = 1.0 / success if success > 0.0 else float("inf")
        result.rows[pooling] = Table1Row(
            pooling=pooling,
            privacy_leakage=leakages[pooling].leakage,
            correlation_leakage=correlation_leakage_loop(raw_images, transmitted),
            success_probability=success,
            uplink_payload_bits=payload.uplink_payload_bits(batch_size),
            values_per_image=payload.values_per_image,
            expected_uplink_slots=expected_slots,
            expected_uplink_latency_s=expected_slots * channel.slot_duration_s,
        )
    return result, leakages
