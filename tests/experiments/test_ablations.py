"""Ablations beyond the paper's figures, checked through the public calls.

The pooling grid is every region dividing the 40x40 paper image (finer than
Table 1's row), the bandwidth grid moves the uplink under 4x4 pooling, and
the blockage-model case generates the same scene under both blockage models.
"""
import math
from dataclasses import replace

import pytest

from repro.channel import PAPER_CHANNEL_PARAMS, PayloadModel
from repro.dataset import DatasetConfig, MmWaveDepthDatasetGenerator
from repro.experiments import success_probability_for_pooling
from repro.mmwave import (
    KnifeEdgeBlockageModel,
    PiecewiseLinearBlockageModel,
    ReceivedPowerModel,
)

POOLINGS = [1, 2, 4, 5, 8, 10, 20, 40]


def _expected_latency_s(success_probability):
    slot_s = PAPER_CHANNEL_PARAMS.slot_duration_s
    return slot_s / success_probability if success_probability > 0 else math.inf


def test_pooling_sweep_covers_divisors_and_monotone():
    assert [p for p in range(1, 41) if 40 % p == 0] == POOLINGS
    payloads = [
        PayloadModel(pooling_height=p, pooling_width=p).uplink_payload_bits(64)
        for p in POOLINGS
    ]
    assert payloads == sorted(payloads, reverse=True)
    successes = [success_probability_for_pooling(p) for p in POOLINGS]
    assert all(b >= a - 1e-12 for a, b in zip(successes, successes[1:]))
    assert successes[-1] == pytest.approx(1.0, abs=1e-6)
    assert _expected_latency_s(successes[0]) > 1.0


def test_pooling_sweep_one_pixel_latency_is_one_slot():
    assert PayloadModel(pooling_height=40, pooling_width=40).values_per_image == 1
    one_pixel = success_probability_for_pooling(40)
    assert _expected_latency_s(one_pixel) == pytest.approx(1e-3, rel=1e-3)


def test_bandwidth_sweep_monotone():
    successes = [
        success_probability_for_pooling(
            4,
            channel=replace(
                PAPER_CHANNEL_PARAMS,
                uplink=replace(PAPER_CHANNEL_PARAMS.uplink, bandwidth_hz=bandwidth),
            ),
        )
        for bandwidth in [10e6, 30e6, 100e6, 400e6]
    ]
    assert all(b >= a - 1e-12 for a, b in zip(successes, successes[1:]))
    # The paper's 30 MHz uplink makes 4x4 pooling nearly undecodable ...
    assert successes[1] < 0.1
    # ... while a much wider uplink would fix it.
    assert successes[-1] > 0.9


def test_blockage_model_comparison_depths():
    config = DatasetConfig(
        num_samples=260, image_height=10, image_width=10, seed=1,
        mean_interarrival_s=1.5,
    )
    for blockage_model in (KnifeEdgeBlockageModel(), PiecewiseLinearBlockageModel()):
        dataset = MmWaveDepthDatasetGenerator(
            config, power_model=ReceivedPowerModel(blockage_model=blockage_model)
        ).generate()
        powers, blocked = dataset.powers_dbm, dataset.line_of_sight_blocked
        assert powers[~blocked].mean() > powers[blocked].mean() + 8.0
