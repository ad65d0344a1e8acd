"""Table 1 — privacy leakage and feed-forward decoding success probability.

For pooling regions 1x1, 4x4, 10x10 and 40x40 (one-pixel) the paper reports:

==================  =====  =====  ======  ==============
pooling             1x1    4x4    10x10   40x40 (1-pixel)
privacy leakage     0.353  0.343  0.333   0.296
success probability 0.00   0.027  0.999   1.00
==================  =====  =====  ======  ==============

The success probability is a closed-form property of the channel model (the
probability that the uplink payload of one minibatch of pooled CNN outputs is
decoded within one slot), and with the paper's channel parameters and a
minibatch of 64 sequences our reproduction matches the reported values almost
exactly.  The privacy leakage is the MDS-based similarity between raw images
and transmitted feature maps; the absolute values depend on the image
statistics, but the monotone decrease with pooling size is preserved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.channel.link import decoding_success_probability
from repro.channel.params import PAPER_CHANNEL_PARAMS, WirelessChannelParams
from repro.channel.payload import PayloadModel
from repro.dataset.generator import DepthPowerDataset
from repro.experiments.common import ExperimentScale
from repro.experiments.pipeline import ExperimentPipeline, PipelineOptions
from repro.nn.layers import average_pool
from repro.privacy.leakage import PrivacyLeakageEvaluator, correlation_leakage
from repro.split.ue import UEClient
from repro.utils.seeding import as_generator

#: The paper's reported Table 1 values, keyed by pooling size.
PAPER_TABLE1 = {
    1: {"privacy_leakage": 0.353, "success_probability": 0.00},
    4: {"privacy_leakage": 0.343, "success_probability": 0.0270},
    10: {"privacy_leakage": 0.333, "success_probability": 0.999},
    40: {"privacy_leakage": 0.296, "success_probability": 1.00},
}


@dataclass
class Table1Row:
    """One column of Table 1 (one pooling configuration).

    ``expected_uplink_slots`` / ``expected_uplink_latency_s`` are the
    closed-form geometric expectations (``1/p`` slots; ``inf`` for payloads
    the channel can never decode) — the same quantities the O(1) sampling ARQ
    reports on average in :class:`repro.channel.ArqStatistics`.
    """

    pooling: int
    privacy_leakage: float
    correlation_leakage: float
    success_probability: float
    uplink_payload_bits: float
    values_per_image: int
    expected_uplink_slots: float = float("inf")
    expected_uplink_latency_s: float = float("inf")


@dataclass
class Table1Result:
    """All pooling configurations of Table 1."""

    rows: Dict[int, Table1Row] = field(default_factory=dict)
    batch_size: int = 64

    def poolings(self) -> List[int]:
        return sorted(self.rows)

    def leakages(self) -> List[float]:
        return [self.rows[p].privacy_leakage for p in self.poolings()]

    def success_probabilities(self) -> List[float]:
        return [self.rows[p].success_probability for p in self.poolings()]

    def summary_rows(self) -> List[dict]:
        return [
            {
                "pooling": f"{p}x{p}",
                "privacy_leakage": self.rows[p].privacy_leakage,
                "success_probability": self.rows[p].success_probability,
                "uplink_payload_kbit": self.rows[p].uplink_payload_bits / 1e3,
                "expected_uplink_slots": self.rows[p].expected_uplink_slots,
            }
            for p in self.poolings()
        ]

    def format_table(self) -> str:
        header = (
            f"{'pooling':>10s} {'leakage':>9s} {'success prob':>13s} "
            f"{'payload (kbit)':>15s} {'E[slots]':>10s}"
        )
        lines = [header]
        for row in self.summary_rows():
            lines.append(
                f"{row['pooling']:>10s} {row['privacy_leakage']:>9.3f} "
                f"{row['success_probability']:>13.4f} "
                f"{row['uplink_payload_kbit']:>15.1f} "
                f"{row['expected_uplink_slots']:>10.4g}"
            )
        return "\n".join(lines)


def success_probability_for_pooling(
    pooling: int,
    image_size: int = 40,
    batch_size: int = 64,
    sequence_length: int = 4,
    bits_per_value: int = 32,
    channel: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
) -> float:
    """Closed-form uplink decoding success probability for one pooling size."""
    payload = PayloadModel(
        image_height=image_size,
        image_width=image_size,
        pooling_height=pooling,
        pooling_width=pooling,
        sequence_length=sequence_length,
        bits_per_value=bits_per_value,
    )
    return decoding_success_probability(
        channel.mean_snr("uplink"),
        payload.uplink_payload_bits(batch_size),
        channel.slot_duration_s,
        channel.uplink.bandwidth_hz,
    )


def run_table1(
    scale: Optional[ExperimentScale] = None,
    dataset: Optional[DepthPowerDataset] = None,
    poolings: Optional[tuple] = None,
    batch_size: int = 64,
    channel: Optional[WirelessChannelParams] = None,
    num_leakage_images: int = 120,
    options: Optional[PipelineOptions] = None,
) -> Table1Result:
    """Regenerate Table 1 at the requested scale.

    The success probability always uses the paper's 40x40 image geometry (it
    is a property of the channel and payload model, independent of the
    synthetic dataset); the privacy leakage is computed on images generated at
    ``scale`` and pooled by each candidate region that divides the image size.
    One cell runs the untrained UE CNN once (its weights do not depend on the
    pooling region) and average-pools that output per region, and one
    :meth:`~repro.privacy.PrivacyLeakageEvaluator.evaluate_all` call scores
    every pooling against a single raw-image embedding.
    The channel defaults to the scale's scenario channel (the paper's
    parameters for ``paper_baseline``).
    """
    pipeline = ExperimentPipeline(scale, options, dataset=dataset)
    scale = pipeline.scale
    if channel is None:
        channel = scale.resolve_scenario().channel
    dataset = pipeline.dataset
    poolings = poolings or scale.valid_poolings()

    # Prefer frames with pedestrians in view: those are the privacy-sensitive
    # ones (a person's silhouette), and they give the leakage metric contrast.
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
    candidate_indices = np.sort(candidate_indices)
    raw_images = dataset.images[candidate_indices]

    # The UE CNN does not depend on the pooling region, so one pass serves
    # every pooling, and the leakage evaluator embeds the raw side once.
    output = UEClient(scale.base_model_config(), seed=scale.seed).output_images(
        raw_images
    )
    transmitted = [
        average_pool(output[:, None], pooling)[:, 0]
        for pooling in poolings
    ]
    leakages = PrivacyLeakageEvaluator(seed=scale.seed).evaluate_all(
        raw_images, transmitted
    )
    result = Table1Result(batch_size=batch_size)
    for pooling, maps, leakage in zip(poolings, transmitted, leakages):
        correlation = correlation_leakage(raw_images, maps)
        payload = PayloadModel(
            image_height=scale.image_size,
            image_width=scale.image_size,
            pooling_height=pooling,
            pooling_width=pooling,
        )
        # Success probability is evaluated with the paper's 40x40 geometry
        # scaled to the equivalent compression ratio at this image size.
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
            privacy_leakage=leakage.leakage,
            correlation_leakage=correlation,
            success_probability=success,
            uplink_payload_bits=payload.uplink_payload_bits(batch_size),
            values_per_image=payload.values_per_image,
            expected_uplink_slots=expected_slots,
            expected_uplink_latency_s=expected_slots * channel.slot_duration_s,
        )
    return result


def result_metrics(result: Table1Result) -> dict:
    """Flatten a :class:`Table1Result` into sweep-cell metrics."""
    metrics: dict = {}
    for pooling, row in result.rows.items():
        prefix = f"pool_{pooling}x{pooling}"
        metrics[f"{prefix}/privacy_leakage"] = float(row.privacy_leakage)
        metrics[f"{prefix}/success_probability"] = float(row.success_probability)
    return metrics


def run_paper_success_probabilities(
    batch_size: int = 64,
    channel: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
) -> Dict[int, float]:
    """The success-probability row of Table 1 with the paper's exact geometry."""
    return {
        pooling: success_probability_for_pooling(
            pooling, image_size=40, batch_size=batch_size, channel=channel
        )
        for pooling in (1, 4, 10, 40)
    }
