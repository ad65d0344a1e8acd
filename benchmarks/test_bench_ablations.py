"""Benchmarks for the ablations that go beyond the paper's figures.

They run the public calls over three design knobs: the pooling-region grid
(payload / latency / success probability through
``success_probability_for_pooling``), the uplink bandwidth needed to make
weak pooling viable, and the sensitivity of the synthetic dataset to the
blockage model a ``ReceivedPowerModel`` is built with.
"""
from __future__ import annotations

from dataclasses import replace

from repro.channel import PAPER_CHANNEL_PARAMS, PayloadModel
from repro.dataset import DatasetConfig, MmWaveDepthDatasetGenerator
from repro.experiments import success_probability_for_pooling
from repro.mmwave import (
    KnifeEdgeBlockageModel,
    PiecewiseLinearBlockageModel,
    ReceivedPowerModel,
)


def test_pooling_sweep_payload_latency(benchmark):
    poolings = [p for p in range(1, 41) if 40 % p == 0]
    successes = benchmark.pedantic(
        lambda: [success_probability_for_pooling(p) for p in poolings],
        rounds=3,
        iterations=1,
    )
    payloads = [PayloadModel(pooling_height=p, pooling_width=p) for p in poolings]
    bits = [payload.uplink_payload_bits(64) for payload in payloads]

    print("\n=== Ablation — pooling sweep (40x40 image, batch 64) ===")
    print(f"{'pooling':>8s} {'values':>7s} {'payload(kbit)':>14s} {'P(success)':>11s} {'E[latency]':>11s}")
    slot_s = PAPER_CHANNEL_PARAMS.slot_duration_s
    for pooling, payload, payload_bits, success in zip(poolings, payloads, bits, successes):
        latency = "inf" if success == 0 else f"{slot_s / success * 1e3:.1f} ms"
        print(
            f"{pooling:>5d}x{pooling:<2d} {payload.values_per_image:>7d} "
            f"{payload_bits / 1e3:>14.1f} {success:>11.4f} {latency:>11s}"
        )

    assert poolings == [1, 2, 4, 5, 8, 10, 20, 40]
    assert bits == sorted(bits, reverse=True)
    assert all(b >= a - 1e-12 for a, b in zip(successes, successes[1:]))
    # The crossover: 4x4 pooling is still (nearly) undecodable, 10x10 is fine.
    by_pooling = dict(zip(poolings, successes))
    assert by_pooling[4] < 0.05
    assert by_pooling[10] > 0.99


def test_bandwidth_sweep_for_4x4_pooling(benchmark):
    bandwidths_hz = [10e6, 30e6, 50e6, 100e6, 200e6, 400e6]

    def with_bandwidth(bandwidth_hz):
        uplink = replace(PAPER_CHANNEL_PARAMS.uplink, bandwidth_hz=bandwidth_hz)
        return replace(PAPER_CHANNEL_PARAMS, uplink=uplink)

    successes = benchmark.pedantic(
        lambda: [
            success_probability_for_pooling(4, channel=with_bandwidth(b))
            for b in bandwidths_hz
        ],
        rounds=3,
        iterations=1,
    )

    print("\n=== Ablation — uplink bandwidth needed for 4x4 pooling ===")
    for bandwidth_hz, success in zip(bandwidths_hz, successes):
        print(f"  W_UL = {bandwidth_hz / 1e6:6.0f} MHz  P(success) = {success:8.5f}")

    assert all(b >= a - 1e-12 for a, b in zip(successes, successes[1:]))
    # With the paper's 30 MHz the scheme is communication-bound; a much wider
    # uplink would remove the bottleneck, confirming pooling is the cheap fix.
    assert successes[bandwidths_hz.index(30e6)] < 0.1
    assert successes[-1] > 0.9


def test_blockage_model_sensitivity(benchmark):
    config = DatasetConfig(
        num_samples=350, image_height=10, image_width=10, seed=1,
        mean_interarrival_s=1.5,
    )

    def depths_db():
        depths = {}
        for name, blockage_model in (
            ("knife-edge", KnifeEdgeBlockageModel()),
            ("piecewise", PiecewiseLinearBlockageModel()),
        ):
            dataset = MmWaveDepthDatasetGenerator(
                config, power_model=ReceivedPowerModel(blockage_model=blockage_model)
            ).generate()
            powers, blocked = dataset.powers_dbm, dataset.line_of_sight_blocked
            depths[name] = float(powers[~blocked].mean() - powers[blocked].mean())
        return depths

    depths = benchmark.pedantic(depths_db, rounds=1, iterations=1)

    print("\n=== Ablation — blockage-model sensitivity of the synthetic dataset ===")
    for name, depth in depths.items():
        print(f"  {name:<10s}: depth {depth:5.1f} dB")

    # Both blockage models produce deep fades of the magnitude reported for
    # 60 GHz human blockage (>= 10 dB), so the learning problem is preserved
    # regardless of which model generates the data.
    assert depths["knife-edge"] > 10.0
    assert depths["piecewise"] > 10.0
