"""Property-based tests for the channel model invariants."""
import math

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    PAPER_CHANNEL_PARAMS,
    PayloadModel,
    decoding_success_probability,
    snr_decoding_threshold,
)

POOLINGS = st.sampled_from([1, 2, 4, 5, 8, 10, 20, 40])
BATCH = st.integers(min_value=1, max_value=512)


@given(POOLINGS, BATCH)
@settings(max_examples=60, deadline=None)
def test_payload_positive_and_proportional_to_batch(pooling, batch):
    model = PayloadModel(pooling_height=pooling, pooling_width=pooling)
    single = model.uplink_payload_bits(1)
    batched = model.uplink_payload_bits(batch)
    assert single > 0
    assert batched == single * batch


@given(POOLINGS, POOLINGS, BATCH)
@settings(max_examples=60, deadline=None)
def test_larger_pooling_never_increases_payload(pool_a, pool_b, batch):
    small, large = sorted((pool_a, pool_b))
    payload_small_pool = PayloadModel(
        pooling_height=small, pooling_width=small
    ).uplink_payload_bits(batch)
    payload_large_pool = PayloadModel(
        pooling_height=large, pooling_width=large
    ).uplink_payload_bits(batch)
    assert payload_large_pool <= payload_small_pool


@given(st.floats(min_value=0.0, max_value=1e8))
@settings(max_examples=60, deadline=None)
def test_threshold_nonnegative_and_monotone(payload_bits):
    threshold = snr_decoding_threshold(payload_bits, 1e-3, 30e6)
    assert threshold >= 0.0
    bigger = snr_decoding_threshold(payload_bits * 2.0 + 1.0, 1e-3, 30e6)
    assert bigger >= threshold


@given(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=1.0, max_value=1e7),
)
@settings(max_examples=60, deadline=None)
def test_success_probability_is_a_probability(mean_snr, payload_bits):
    probability = decoding_success_probability(mean_snr, payload_bits, 1e-3, 30e6)
    assert 0.0 <= probability <= 1.0


@given(st.floats(min_value=1e3, max_value=1e7))
@settings(max_examples=60, deadline=None)
def test_more_bandwidth_never_hurts(payload_bits):
    mean_snr = PAPER_CHANNEL_PARAMS.mean_snr("uplink")
    narrow = decoding_success_probability(mean_snr, payload_bits, 1e-3, 10e6)
    wide = decoding_success_probability(mean_snr, payload_bits, 1e-3, 100e6)
    assert wide >= narrow - 1e-12


@given(st.floats(min_value=1e2, max_value=1e7))
@settings(max_examples=40, deadline=None)
def test_expected_slots_consistent_with_probability(payload_bits):
    from repro.channel import WirelessLink

    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    probability = link.success_probability(payload_bits)
    slots = link.expected_slots(payload_bits)
    if probability <= 0:
        assert math.isinf(slots)
    else:
        assert slots == pytest.approx(1.0 / probability, rel=1e-9)


@given(
    st.floats(min_value=1e-9, max_value=1.0, exclude_max=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_geometric_slots_are_positive_integers(probability, seed):
    from repro.channel import slots_from_fading

    draws = np.random.default_rng(seed).exponential(1.0, size=16)
    slots = slots_from_fading(draws, probability)
    assert np.all(slots >= 1.0)
    assert np.array_equal(slots, np.floor(slots))


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e3, max_value=1e6),
)
@settings(max_examples=40, deadline=None)
def test_capped_transmissions_respect_the_budget(cap, seed, payload_bits):
    from repro.channel import WirelessLink, transmit_across

    link = WirelessLink(
        params=PAPER_CHANNEL_PARAMS,
        direction="uplink",
        max_retransmissions=cap,
        seed=seed,
    )
    batch = transmit_across([link] * 32, payload_bits)
    assert np.all(batch.slots_used >= 1)
    assert np.all(batch.slots_used <= cap + 1)
    from repro.channel import INFEASIBLE_SUCCESS_PROBABILITY

    if link.success_probability(payload_bits) >= INFEASIBLE_SUCCESS_PROBABILITY:
        # Simulated failures consume exactly the full retry budget ...
        assert np.all(batch.slots_used[~batch.success] == cap + 1)
    else:
        # ... while declared-infeasible payloads are one-slot failures.
        assert not batch.success.any()
        assert np.all(batch.slots_used == 1)
