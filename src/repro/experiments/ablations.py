"""Ablation studies beyond the paper's figures.

These sweeps probe the design choices that DESIGN.md calls out:

* :func:`pooling_sweep` — payload size, expected per-step latency and success
  probability across every pooling region that divides the image (a finer
  grid than Table 1).
* :func:`bandwidth_sweep` — how the uplink bandwidth moves the crossover at
  which 4x4-style pooling becomes viable.
* :func:`sequence_length_sweep` — accuracy of the RF-only predictor as the
  RNN input window grows (sample-complexity argument of the paper).
* :func:`blockage_model_comparison` — knife-edge vs piecewise-linear blockage
  models on the generated power traces (dataset-realism sensitivity).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.channel.link import decoding_success_probability
from repro.channel.params import PAPER_CHANNEL_PARAMS, LinkParams, WirelessChannelParams
from repro.channel.payload import PayloadModel
from repro.dataset.generator import DatasetConfig, MmWaveDepthDatasetGenerator
from repro.dataset.sequences import build_sequences
from repro.dataset.splits import temporal_split
from repro.experiments.common import ExperimentScale, prepare_split
from repro.mmwave.blockage import KnifeEdgeBlockageModel, PiecewiseLinearBlockageModel
from repro.mmwave.power import ReceivedPowerModel
from repro.split.config import ExperimentConfig
from repro.split.trainer import SplitTrainer


@dataclass
class PoolingSweepRow:
    pooling: int
    values_per_image: int
    uplink_payload_bits: float
    success_probability: float
    expected_uplink_latency_s: float


def pooling_sweep(
    image_size: int = 40,
    batch_size: int = 64,
    channel: WirelessChannelParams = PAPER_CHANNEL_PARAMS,
) -> List[PoolingSweepRow]:
    """Sweep every pooling region that divides ``image_size``."""
    rows: List[PoolingSweepRow] = []
    for pooling in range(1, image_size + 1):
        if image_size % pooling != 0:
            continue
        payload = PayloadModel(
            image_height=image_size,
            image_width=image_size,
            pooling_height=pooling,
            pooling_width=pooling,
        )
        bits = payload.uplink_payload_bits(batch_size)
        probability = decoding_success_probability(
            channel.mean_snr("uplink"),
            bits,
            channel.slot_duration_s,
            channel.uplink.bandwidth_hz,
        )
        if probability > 0:
            latency = channel.slot_duration_s / probability
        else:
            latency = float("inf")
        rows.append(
            PoolingSweepRow(
                pooling=pooling,
                values_per_image=payload.values_per_image,
                uplink_payload_bits=bits,
                success_probability=probability,
                expected_uplink_latency_s=latency,
            )
        )
    return rows


@dataclass
class BandwidthSweepRow:
    bandwidth_hz: float
    success_probability: float
    expected_uplink_latency_s: float


def bandwidth_sweep(
    pooling: int = 4,
    image_size: int = 40,
    batch_size: int = 64,
    bandwidths_hz: Optional[List[float]] = None,
) -> List[BandwidthSweepRow]:
    """Success probability of one pooling configuration vs uplink bandwidth."""
    bandwidths_hz = bandwidths_hz or [10e6, 30e6, 50e6, 100e6, 200e6, 400e6]
    payload = PayloadModel(
        image_height=image_size,
        image_width=image_size,
        pooling_height=pooling,
        pooling_width=pooling,
    )
    bits = payload.uplink_payload_bits(batch_size)
    rows: List[BandwidthSweepRow] = []
    for bandwidth in bandwidths_hz:
        params = replace(
            PAPER_CHANNEL_PARAMS,
            uplink=LinkParams(
                transmit_power_dbm=PAPER_CHANNEL_PARAMS.uplink.transmit_power_dbm,
                bandwidth_hz=bandwidth,
            ),
        )
        probability = decoding_success_probability(
            params.mean_snr("uplink"),
            bits,
            params.slot_duration_s,
            bandwidth,
        )
        latency = (
            params.slot_duration_s / probability if probability > 0 else float("inf")
        )
        rows.append(
            BandwidthSweepRow(
                bandwidth_hz=bandwidth,
                success_probability=probability,
                expected_uplink_latency_s=latency,
            )
        )
    return rows


@dataclass
class SequenceLengthRow:
    sequence_length: int
    rmse_db: float


def sequence_length_sweep(
    scale: Optional[ExperimentScale] = None,
    sequence_lengths: Optional[List[int]] = None,
) -> List[SequenceLengthRow]:
    """RF-only accuracy as a function of the RNN input window length."""
    scale = scale or ExperimentScale.fast()
    sequence_lengths = sequence_lengths or [2, 4, 8]
    from repro.experiments.common import generate_dataset

    dataset = generate_dataset(scale)
    rows: List[SequenceLengthRow] = []
    for length in sequence_lengths:
        sequences = build_sequences(dataset, sequence_length=length)
        split = temporal_split(sequences)
        model = replace(
            scale.base_model_config(), use_image=False, sequence_length=length
        )
        trainer = SplitTrainer(
            ExperimentConfig(model=model, training=scale.training_config())
        )
        history = trainer.fit(split.train, split.validation)
        rows.append(SequenceLengthRow(sequence_length=length, rmse_db=history.best_rmse_db))
    return rows


@dataclass
class BlockageComparisonResult:
    """Power-trace statistics under the two blockage models."""

    knife_edge_depth_db: float
    piecewise_depth_db: float
    knife_edge_transition_frames: float
    piecewise_transition_frames: float


def _mean_blockage_depth_db(powers: np.ndarray, blocked: np.ndarray) -> float:
    if not blocked.any() or blocked.all():
        return 0.0
    return float(powers[~blocked].mean() - powers[blocked].mean())


def _mean_transition_frames(powers: np.ndarray, drop_db: float = 10.0) -> float:
    """Average number of frames a drop of ``drop_db`` takes to develop."""
    baseline = np.median(powers)
    below = powers < baseline - drop_db
    transitions = []
    for index in np.flatnonzero(below[1:] & ~below[:-1]):
        # Walk backwards until the trace is back near the baseline.
        start = index
        while start > 0 and powers[start] < baseline - 2.0:
            start -= 1
        transitions.append(index + 1 - start)
    return float(np.mean(transitions)) if transitions else 0.0


def blockage_model_comparison(
    num_samples: int = 400,
    image_size: int = 12,
    seed: int = 0,
    mean_interarrival_s: float = 1.5,
) -> BlockageComparisonResult:
    """Compare the knife-edge and piecewise blockage models on the same scene."""
    results = {}
    for name, model in (
        ("knife_edge", KnifeEdgeBlockageModel()),
        ("piecewise", PiecewiseLinearBlockageModel()),
    ):
        config = DatasetConfig(
            num_samples=num_samples,
            image_height=image_size,
            image_width=image_size,
            mean_interarrival_s=mean_interarrival_s,
            seed=seed,
        )
        power_model = ReceivedPowerModel(blockage_model=model)
        dataset = MmWaveDepthDatasetGenerator(config, power_model=power_model).generate()
        results[name] = (
            _mean_blockage_depth_db(dataset.powers_dbm, dataset.line_of_sight_blocked),
            _mean_transition_frames(dataset.powers_dbm),
        )
    return BlockageComparisonResult(
        knife_edge_depth_db=results["knife_edge"][0],
        piecewise_depth_db=results["piecewise"][0],
        knife_edge_transition_frames=results["knife_edge"][1],
        piecewise_transition_frames=results["piecewise"][1],
    )


@dataclass
class RnnTypeRow:
    rnn_type: str
    rmse_db: float
    elapsed_s: float


def rnn_type_sweep(
    scale: Optional[ExperimentScale] = None,
    rnn_types: Optional[List[str]] = None,
) -> List[RnnTypeRow]:
    """Compare LSTM / GRU / simple RNN back-ends for the BS half."""
    scale = scale or ExperimentScale.fast()
    rnn_types = rnn_types or ["lstm", "gru", "simple"]
    split = prepare_split(scale)
    rows: List[RnnTypeRow] = []
    for rnn_type in rnn_types:
        model = replace(scale.base_model_config(), rnn_type=rnn_type)
        trainer = SplitTrainer(
            ExperimentConfig(model=model, training=scale.training_config())
        )
        history = trainer.fit(split.train, split.validation)
        rows.append(
            RnnTypeRow(
                rnn_type=rnn_type,
                rmse_db=history.best_rmse_db,
                elapsed_s=history.total_elapsed_s,
            )
        )
    return rows
