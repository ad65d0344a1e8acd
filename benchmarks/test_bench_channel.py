"""Micro-benchmarks of the O(1) geometric-sampling channel vs. the loop reference.

Times :meth:`WirelessLink.transmit` (one geometric draw per payload) against
the retained per-slot retry loop :meth:`WirelessLink.transmit_reference`
(expected ``1/p`` draws per payload) across decreasing per-slot success
probabilities.

Two bars are asserted:

* at success probability <= 1e-3 the geometric path must beat the loop by
  >= 10x per payload (it is typically >100x, and the gap widens as ``p``
  falls — the loop is O(1/p), the sampler O(1));
* the geometric sampler's slot distribution must match the loop's within a
  5-sigma two-sample tolerance (they sample the same geometric law).

``REPRO_BENCH_SCALE=smoke`` shrinks the sample counts for CI smoke runs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.channel import PAPER_CHANNEL_PARAMS, WirelessLink
from repro.experiments import ExperimentScale

MIN_TRANSMIT_SPEEDUP = 10.0
LOW_SUCCESS_PROBABILITY = 1e-3


def payload_for_success_probability(probability: float) -> float:
    """Uplink payload bits giving the requested per-slot success probability."""
    params = PAPER_CHANNEL_PARAMS
    threshold = -params.mean_snr("uplink") * math.log(probability)
    return params.slot_duration_s * params.uplink.bandwidth_hz * math.log2(
        1.0 + threshold
    )


@dataclass
class ChannelRecord:
    """One row of the channel throughput table."""

    case: str
    fast_pps: float  # payloads per second, O(1) path
    reference_pps: float

    @property
    def speedup(self) -> float:
        return self.fast_pps / self.reference_pps


def _throughput(fn: Callable[[], None], payloads: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return payloads / best


def _bench_counts(scale: ExperimentScale) -> tuple[int, int, int]:
    """(geometric payload count, loop payload count, timing repeats)."""
    if scale.num_samples <= ExperimentScale.smoke().num_samples:
        return 500, 20, 2
    return 2000, 100, 3


def _run_channel_suite(scale: ExperimentScale) -> List[ChannelRecord]:
    fast_count, loop_count, repeats = _bench_counts(scale)
    records: List[ChannelRecord] = []

    for probability in (0.5, 1e-2, LOW_SUCCESS_PROBABILITY):
        payload = payload_for_success_probability(probability)
        fast_link = WirelessLink(
            params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0
        )
        loop_link = WirelessLink(
            params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=1
        )
        records.append(
            ChannelRecord(
                f"transmit p={probability:g}",
                _throughput(
                    lambda: [fast_link.transmit(payload) for _ in range(fast_count)],
                    fast_count,
                    repeats,
                ),
                _throughput(
                    lambda: [
                        loop_link.transmit_reference(payload)
                        for _ in range(loop_count)
                    ],
                    loop_count,
                    repeats,
                ),
            )
        )

    return records


def _distribution_counts(scale: ExperimentScale) -> tuple[int, int]:
    if scale.num_samples <= ExperimentScale.smoke().num_samples:
        return 4000, 80
    return 20000, 400


def test_channel_throughput_and_distribution(benchmark, scale):
    records = benchmark.pedantic(
        lambda: _run_channel_suite(scale), rounds=1, iterations=1
    )

    print("\n=== channel throughput (geometric sampling vs loop reference) ===")
    print(f"{'case':<22s} {'geometric':>14s} {'loop ref':>14s} {'speedup':>9s}")
    for record in records:
        print(
            f"{record.case:<22s} {record.fast_pps:>12.0f}/s "
            f"{record.reference_pps:>12.0f}/s {record.speedup:>8.1f}x"
        )

    by_case = {record.case: record for record in records}
    low_p = by_case[f"transmit p={LOW_SUCCESS_PROBABILITY:g}"]
    # The acceptance bar: O(1) sampling must beat the O(1/p) loop by >= 10x
    # at the lowest probability (it is typically >100x there).
    assert low_p.speedup >= MIN_TRANSMIT_SPEEDUP, (
        f"transmit speedup {low_p.speedup:.1f}x below {MIN_TRANSMIT_SPEEDUP}x "
        f"at p={LOW_SUCCESS_PROBABILITY:g}"
    )
    for record in records:
        assert record.fast_pps > 0 and np.isfinite(record.speedup)

    # Statistical equivalence at the asserted probability: the geometric
    # sampler and the per-slot loop draw from the same Geometric(p) law.
    geometric_count, loop_count = _distribution_counts(scale)
    payload = payload_for_success_probability(LOW_SUCCESS_PROBABILITY)
    geometric_link = WirelessLink(
        params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=11
    )
    loop_link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=13)
    geometric = np.array(
        [geometric_link.transmit(payload).slots_used for _ in range(geometric_count)]
    )
    loop = np.array(
        [loop_link.transmit_reference(payload).slots_used for _ in range(loop_count)]
    )
    expected_mean = geometric_link.expected_slots(payload)
    variance = (1.0 - LOW_SUCCESS_PROBABILITY) / LOW_SUCCESS_PROBABILITY**2
    tolerance = 5.0 * math.sqrt(variance / geometric_count + variance / loop_count)
    print(
        f"slot means at p={LOW_SUCCESS_PROBABILITY:g}: geometric "
        f"{geometric.mean():.1f}, loop {loop.mean():.1f}, closed-form "
        f"{expected_mean:.1f} (tolerance {tolerance:.1f})"
    )
    assert abs(geometric.mean() - loop.mean()) < tolerance
    assert abs(geometric.mean() - expected_mean) < 5.0 * math.sqrt(
        variance / geometric_count
    )
