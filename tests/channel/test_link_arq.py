"""Tests for fading, link decoding and the ARQ session."""
import math

import numpy as np
import pytest

from repro.channel import (
    ArqSession,
    ArqStatistics,
    ExponentialFadingProcess,
    INFEASIBLE_SUCCESS_PROBABILITY,
    PAPER_CHANNEL_PARAMS,
    PayloadModel,
    WirelessLink,
    decoding_success_probability,
    slots_from_fading,
    snr_decoding_threshold,
    transmit_across,
)

from tests.channel.link_oracle import transmit_reference


def payload_for_success_probability(probability: float, direction: str = "uplink") -> float:
    """Payload bits giving the requested per-slot success probability."""
    params = PAPER_CHANNEL_PARAMS
    mean_snr = params.mean_snr(direction)
    threshold = -mean_snr * math.log(probability)
    bandwidth = params.direction(direction).bandwidth_hz
    return params.slot_duration_s * bandwidth * math.log2(1.0 + threshold)


def test_exponential_fading_unit_mean():
    process = ExponentialFadingProcess(seed=0)
    samples = np.array([process.sample_one() for _ in range(50000)])
    assert samples.mean() == pytest.approx(1.0, abs=0.02)
    assert np.all(samples >= 0.0)


def test_exponential_fading_reproducible():
    a, b = ExponentialFadingProcess(seed=3), ExponentialFadingProcess(seed=3)
    assert [a.sample_one() for _ in range(10)] == [b.sample_one() for _ in range(10)]
    with pytest.raises(ValueError):
        ExponentialFadingProcess(mean=0.0)


def test_snr_threshold_shannon_form():
    # tau W = 30000 bits/slot capacity scale; B = 30000 -> threshold 2^1 - 1 = 1.
    threshold = snr_decoding_threshold(30000.0, 1e-3, 30e6)
    assert threshold == pytest.approx(1.0)
    assert snr_decoding_threshold(0.0, 1e-3, 30e6) == pytest.approx(0.0)


def test_snr_threshold_huge_payload_is_infinite():
    assert math.isinf(snr_decoding_threshold(1e12, 1e-3, 30e6))
    with pytest.raises(ValueError):
        snr_decoding_threshold(-1.0, 1e-3, 30e6)


def test_success_probability_closed_form():
    mean_snr = 100.0
    payload = 30000.0  # threshold 1.0
    probability = decoding_success_probability(mean_snr, payload, 1e-3, 30e6)
    assert probability == pytest.approx(np.exp(-1.0 / 100.0))
    with pytest.raises(ValueError):
        decoding_success_probability(0.0, payload, 1e-3, 30e6)


def test_success_probability_monotone_in_payload():
    mean_snr = PAPER_CHANNEL_PARAMS.mean_snr("uplink")
    payloads = [1e3, 1e5, 5e5, 1e6, 5e6]
    probabilities = [
        decoding_success_probability(mean_snr, p, 1e-3, 30e6) for p in payloads
    ]
    assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))


def test_paper_table1_success_probabilities():
    """The closed-form values reproduce the success-probability row of Table 1."""
    mean_snr = PAPER_CHANNEL_PARAMS.mean_snr("uplink")
    expectations = {1: 0.00, 4: 0.027, 10: 0.999, 40: 1.00}
    for pooling, expected in expectations.items():
        payload = PayloadModel(
            pooling_height=pooling, pooling_width=pooling
        ).uplink_payload_bits(64)
        probability = decoding_success_probability(mean_snr, payload, 1e-3, 30e6)
        assert probability == pytest.approx(expected, abs=0.005)


def test_wireless_link_transmit_small_payload_first_slot():
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    result = link.transmit(1000.0)
    assert result.success
    assert result.slots_used == 1
    assert result.elapsed_s == pytest.approx(1e-3)
    assert result.first_attempt_success


def test_wireless_link_impossible_payload_fails_fast():
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    result = link.transmit(1e9)
    assert not result.success
    assert math.isinf(link.expected_slots(1e9))
    assert link.success_probability(1e9) == pytest.approx(0.0)


def test_wireless_link_retransmission_statistics():
    # Payload sized for ~50% per-slot success: expect ~2 slots on average.
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=1)
    mean_snr = link.mean_snr
    target_threshold = mean_snr * np.log(2.0)  # P(success) = 0.5
    payload = 1e-3 * 30e6 * np.log2(1.0 + target_threshold)
    assert link.success_probability(payload) == pytest.approx(0.5, abs=0.01)
    slots = [link.transmit(payload).slots_used for _ in range(800)]
    assert np.mean(slots) == pytest.approx(2.0, abs=0.25)
    assert link.expected_slots(payload) == pytest.approx(2.0, abs=0.05)


def test_wireless_link_capped_retransmissions():
    link = WirelessLink(
        params=PAPER_CHANNEL_PARAMS,
        direction="uplink",
        max_retransmissions=3,
        seed=2,
    )
    # Success probability ~2.7% (paper's 4x4 pooling): often fails within 4 slots.
    payload = PayloadModel(pooling_height=4, pooling_width=4).uplink_payload_bits(64)
    results = [link.transmit(payload) for _ in range(200)]
    failures = [r for r in results if not r.success]
    assert failures, "expected some transmissions to exhaust the retry cap"
    assert all(r.slots_used <= 5 for r in results)


def test_wireless_link_invalid_direction():
    with pytest.raises(ValueError):
        WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="sidelink")


def test_arq_session_exchange_updates_statistics():
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=0)
    payload = PayloadModel(pooling_height=40, pooling_width=40)
    for _ in range(5):
        # The cut-layer gradients have the activations' shape: same payload.
        bits = payload.uplink_payload_bits(64)
        step = session.exchange(bits, bits)
        assert step.success
        assert step.total_elapsed_s >= 2e-3  # at least one slot each way
    stats = session.statistics
    assert stats.steps == 5
    assert stats.uplink_slots >= 5
    assert stats.downlink_slots >= 5
    assert stats.uplink_first_attempt_success_rate == pytest.approx(1.0)
    assert stats.mean_slots_per_step >= 2.0


def test_arq_session_reset():
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=0)
    session.exchange(1000.0, 1000.0)
    session.reset_statistics()
    assert session.statistics.steps == 0


def test_arq_session_reproducible_with_seed():
    def run(seed):
        session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=seed)
        payload = PayloadModel(pooling_height=4, pooling_width=4).uplink_payload_bits(64)
        return [session.exchange(payload, 1000.0).uplink.slots_used for _ in range(20)]

    assert run(7) == run(7)
    assert run(7) != run(8)


# -- geometric sampling --------------------------------------------------------------


def test_slots_from_fading_distribution_and_validation():
    rng = np.random.default_rng(0)
    draws = rng.exponential(1.0, size=50000)
    slots = slots_from_fading(draws, 0.5)
    assert np.all(slots >= 1.0)
    assert slots.mean() == pytest.approx(2.0, abs=0.05)
    assert (slots == 1.0).mean() == pytest.approx(0.5, abs=0.02)
    # p == 1 decodes in the first slot regardless of the draw.
    assert np.all(slots_from_fading(draws, 1.0) == 1.0)
    # Non-unit fading mean rescales the draws, not the distribution.
    scaled = slots_from_fading(3.0 * draws, 0.5, mean=3.0)
    assert np.array_equal(scaled, slots)
    with pytest.raises(ValueError):
        slots_from_fading(draws, 0.0)
    with pytest.raises(ValueError):
        slots_from_fading(draws, 1.5)


def test_transmit_matches_reference_loop_distribution():
    """The O(1) geometric sampler and the per-slot loop sample the same law."""
    payload = payload_for_success_probability(0.5)
    geometric_link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=11)
    loop_link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=47)
    count = 6000
    geometric = transmit_across([geometric_link] * count, payload).slots_used
    loop = np.array(
        [transmit_reference(loop_link, payload).slots_used for _ in range(count)]
    )
    # Geometric(0.5): mean 2, variance 2.  Means of 6000 draws have a standard
    # error of ~0.018; 5-sigma two-sample tolerances keep this deterministic
    # in practice while still catching a wrong distribution.
    standard_error = math.sqrt(2.0 / count + 2.0 / count)
    assert abs(geometric.mean() - loop.mean()) < 5 * standard_error
    assert geometric.mean() == pytest.approx(2.0, abs=5 * math.sqrt(2.0 / count))
    for slots_value, mass in ((1, 0.5), (2, 0.25), (3, 0.125)):
        geometric_mass = (geometric == slots_value).mean()
        loop_mass = (loop == slots_value).mean()
        assert geometric_mass == pytest.approx(mass, abs=0.035)
        assert abs(geometric_mass - loop_mass) < 0.05


def test_transmit_many_matches_sequential_transmits():
    """Many payloads on one link (the link repeated in ``transmit_across``)
    consume its fading stream exactly like scalar transmits."""
    payload = payload_for_success_probability(0.3)
    batched = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=5)
    scalar = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=5)
    batch = transmit_across([batched] * 64, payload)
    results = [scalar.transmit(payload) for _ in range(64)]
    assert [int(s) for s in batch.slots_used] == [r.slots_used for r in results]
    assert [bool(s) for s in batch.success] == [r.success for r in results]
    assert batch.elapsed_s.sum() == pytest.approx(sum(r.elapsed_s for r in results))
    # And the streams stay aligned afterwards.
    assert batched.transmit(payload).slots_used == scalar.transmit(payload).slots_used


def test_transmit_many_empty_and_validation():
    """No links give an empty batch; links must share one slot duration."""
    from dataclasses import replace

    empty = transmit_across([], 1000.0)
    assert len(empty) == 0
    assert empty.slots_used.sum() == 0
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    slower = WirelessLink(
        params=replace(PAPER_CHANNEL_PARAMS, slot_duration_s=2e-3),
        direction="uplink",
        seed=1,
    )
    with pytest.raises(ValueError, match="slot duration"):
        transmit_across([link, slower], 1000.0)


def test_negative_retransmission_cap_is_rejected():
    """A cap below zero has no meaning; both the link and the session refuse it."""
    with pytest.raises(ValueError, match="max_retransmissions"):
        WirelessLink(
            params=PAPER_CHANNEL_PARAMS, direction="uplink", max_retransmissions=-1
        )
    with pytest.raises(ValueError, match="max_retransmissions"):
        ArqSession(params=PAPER_CHANNEL_PARAMS, max_retransmissions=-3)


def test_batch_result_indexing():
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    batch = transmit_across([link] * 3, 1000.0)
    first = batch[0]
    assert first.success and first.slots_used == int(batch.slots_used[0])
    assert batch.success.all()


def test_capped_retransmission_boundary_exactly_n_plus_one():
    """A capped link fails after exactly max_retransmissions + 1 attempts."""
    cap = 3
    link = WirelessLink(
        params=PAPER_CHANNEL_PARAMS,
        direction="uplink",
        max_retransmissions=cap,
        seed=0,
    )
    # p = 1e-6 is far above the feasibility floor but fails the 4-slot budget
    # almost surely: every observed failure must consume exactly cap+1 slots.
    payload = payload_for_success_probability(1e-6)
    assert link.success_probability(payload) > INFEASIBLE_SUCCESS_PROBABILITY
    for _ in range(50):
        result = link.transmit(payload)
        assert not result.success
        assert result.slots_used == cap + 1
        assert result.elapsed_s == pytest.approx((cap + 1) * 1e-3)
        assert not result.first_attempt_success
    batch = transmit_across([link] * 200, payload)
    assert not batch.success.any()
    assert np.all(batch.slots_used == cap + 1)
    # Successful capped transmissions never exceed the budget either.
    easy = WirelessLink(
        params=PAPER_CHANNEL_PARAMS, direction="uplink", max_retransmissions=cap, seed=1
    )
    easy_batch = transmit_across([easy] * 500, payload_for_success_probability(0.5))
    assert np.all(easy_batch.slots_used <= cap + 1)
    assert np.all(easy_batch.slots_used[easy_batch.success] >= 1)


def test_infeasible_accounting_unified_across_retransmission_configs():
    """Undecodable payloads report one slot whether or not a cap is set."""
    huge_payload = 1e9
    for max_retransmissions in (None, 0, 3):
        link = WirelessLink(
            params=PAPER_CHANNEL_PARAMS,
            direction="uplink",
            max_retransmissions=max_retransmissions,
            seed=0,
        )
        result = link.transmit(huge_payload)
        assert not result.success
        assert result.slots_used == 1
        assert result.elapsed_s == pytest.approx(1e-3)
        batch = transmit_across([link] * 5, huge_payload)
        assert not batch.success.any()
        assert np.all(batch.slots_used == 1)


def test_infeasible_transmissions_consume_no_fading_draws():
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=9)
    untouched = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=9)
    link.transmit(1e9)
    transmit_across([link] * 4, 1e9)
    payload = payload_for_success_probability(0.5)
    assert link.transmit(payload).slots_used == untouched.transmit(payload).slots_used


# -- gated exchange ------------------------------------------------------------------


def test_exchange_gates_downlink_on_uplink_failure():
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, max_retransmissions=2, seed=0)
    bad_uplink = payload_for_success_probability(1e-8)
    step = session.exchange(bad_uplink, 1000.0)
    assert not step.uplink.success
    assert step.downlink is None
    assert not step.success
    assert step.total_slots == step.uplink.slots_used
    assert step.total_elapsed_s == pytest.approx(step.uplink.elapsed_s)
    stats = session.statistics
    assert stats.steps == 1
    assert stats.downlink_slots == 0
    assert stats.downlink_skipped == 1
    assert stats.downlink_attempts == 0
    assert stats.uplink_failures == 1
    assert stats.downlink_first_attempt_success_rate == 0.0


def test_gated_exchange_preserves_downlink_stream():
    """A skipped downlink must not consume downlink fading draws."""
    gated = ArqSession(params=PAPER_CHANNEL_PARAMS, max_retransmissions=2, seed=42)
    fresh = ArqSession(params=PAPER_CHANNEL_PARAMS, max_retransmissions=2, seed=42)
    bad_uplink = payload_for_success_probability(1e-8)
    good_payload = payload_for_success_probability(0.5)
    gated.exchange(bad_uplink, good_payload)  # uplink fails, downlink skipped
    # Align the uplink streams: consume the same number of uplink draws.
    fresh.uplink.transmit(bad_uplink)
    after_gate = gated.exchange(good_payload, good_payload)
    reference = fresh.exchange(good_payload, good_payload)
    assert after_gate.downlink.slots_used == reference.downlink.slots_used


# -- streaming statistics ------------------------------------------------------------


def test_streaming_statistics_match_numpy_moments():
    payload = payload_for_success_probability(0.3)
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=17)
    steps = [session.exchange(payload, payload) for _ in range(150)]
    slots = np.array([step.total_slots for step in steps])
    latency = np.array([step.total_elapsed_s for step in steps])
    stats = session.statistics
    assert stats.steps == 150
    assert stats.mean_slots_per_step == pytest.approx(slots.mean())
    assert stats.slots_variance == pytest.approx(slots.var())
    assert stats.slots_std == pytest.approx(slots.std())
    assert stats.mean_step_latency_s == pytest.approx(latency.mean())
    assert stats.latency_std_s == pytest.approx(latency.std())
    assert stats.total_elapsed_s == pytest.approx(latency.sum())


def test_statistics_snapshot_is_independent():
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=0)
    session.exchange(1000.0, 1000.0)
    snapshot = session.statistics.snapshot()
    session.exchange(1000.0, 1000.0)
    assert snapshot.steps == 1
    assert session.statistics.steps == 2


def test_statistics_merge_matches_single_run():
    payload = payload_for_success_probability(0.4)
    combined = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=8)
    for _ in range(40):
        combined.exchange(payload, payload)

    split_a, split_b = ArqStatistics(), ArqStatistics()
    replay = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=8)
    for index in range(40):
        step = replay.exchange(payload, payload)
        (split_a if index < 13 else split_b).record(step)
    merged = split_a.merge(split_b)
    reference = combined.statistics
    assert merged.steps == reference.steps
    assert merged.uplink_slots == reference.uplink_slots
    assert merged.mean_slots_per_step == pytest.approx(reference.mean_slots_per_step)
    assert merged.slots_variance == pytest.approx(reference.slots_variance)
    assert merged.latency_variance_s2 == pytest.approx(reference.latency_variance_s2)
    # Merging with an empty side is the identity.
    assert ArqStatistics().merge(reference).mean_slots_per_step == pytest.approx(
        reference.mean_slots_per_step
    )
    assert reference.merge(ArqStatistics()).steps == reference.steps


def test_statistics_as_dict_round_trips_to_json():
    import json

    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=0)
    session.exchange(1000.0, 1000.0)
    payload = json.loads(json.dumps(session.statistics.as_dict()))
    assert payload["steps"] == 1
    assert payload["mean_slots_per_step"] >= 2.0


def test_statistics_count_every_step_until_reset():
    session = ArqSession(params=PAPER_CHANNEL_PARAMS, seed=0)
    for _ in range(10):
        session.exchange(1000.0, 1000.0)
    assert session.statistics.steps == 10  # aggregates see every step
    session.reset_statistics()
    assert session.statistics.steps == 0


# -- per-step payload arrays (codec-sized payloads) ----------------------------------


def test_transmit_many_array_matches_sequential_transmits():
    """A per-step payload array consumes fading draws exactly like scalars."""
    payloads = [
        payload_for_success_probability(p) for p in (0.3, 0.9, 0.5, 0.99, 0.7)
    ] * 4
    batched = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=11)
    scalar = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=11)
    batch = transmit_across([batched] * len(payloads), np.array(payloads))
    results = [scalar.transmit(bits) for bits in payloads]
    assert [int(s) for s in batch.slots_used] == [r.slots_used for r in results]
    assert [bool(s) for s in batch.success] == [r.success for r in results]
    assert batch.elapsed_s.sum() == pytest.approx(sum(r.elapsed_s for r in results))
    # And the streams stay aligned afterwards.
    probe = payloads[0]
    assert batched.transmit(probe).slots_used == scalar.transmit(probe).slots_used


def test_transmit_many_array_with_infeasible_entries():
    """Infeasible entries fail without a draw, feasible ones draw in order."""
    feasible = payload_for_success_probability(0.5)
    infeasible = 1e9  # far beyond any slot's capacity
    payloads = np.array([feasible, infeasible, feasible, infeasible, feasible])
    batched = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=21)
    scalar = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=21)
    batch = transmit_across([batched] * len(payloads), payloads)
    results = [scalar.transmit(bits) for bits in payloads]
    assert [bool(s) for s in batch.success] == [True, False, True, False, True]
    assert [int(s) for s in batch.slots_used] == [r.slots_used for r in results]
    assert [bool(s) for s in batch.success] == [r.success for r in results]


def test_transmit_many_array_length_mismatch():
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    with pytest.raises(ValueError, match="payload_bits"):
        transmit_across([link] * 3, np.array([1000.0, 2000.0]))
    with pytest.raises(ValueError):
        transmit_across([link] * 4, np.ones((2, 2)) * 1000.0)


def test_transmit_across_matches_sequential_transmits():
    """transmit_across draws each link's fading exactly like its own transmit."""
    payload = payload_for_success_probability(0.3)
    caps = [None, 0, 3, None, 1]
    batched = [
        WirelessLink(
            params=PAPER_CHANNEL_PARAMS,
            direction="uplink",
            max_retransmissions=cap,
            seed=index,
        )
        for index, cap in enumerate(caps)
    ]
    scalar = [
        WirelessLink(
            params=PAPER_CHANNEL_PARAMS,
            direction="uplink",
            max_retransmissions=cap,
            seed=index,
        )
        for index, cap in enumerate(caps)
    ]
    for _ in range(30):
        batch = transmit_across(batched, payload)
        results = [link.transmit(payload) for link in scalar]
        assert [int(s) for s in batch.slots_used] == [r.slots_used for r in results]
        assert [bool(s) for s in batch.success] == [r.success for r in results]
        assert [bool(s) for s in batch.first_attempt_success] == [
            r.first_attempt_success for r in results
        ]
    # The streams stay aligned afterwards.
    for batched_link, scalar_link in zip(batched, scalar):
        assert (
            batched_link.transmit(payload).slots_used
            == scalar_link.transmit(payload).slots_used
        )


def test_transmit_across_per_link_payloads_and_infeasible():
    """Per-link payload arrays work, and infeasible links consume no draw."""
    light = payload_for_success_probability(0.9)
    batched = [
        WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=index)
        for index in range(3)
    ]
    scalar = [
        WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=index)
        for index in range(3)
    ]
    payloads = np.array([light, 1e12, payload_for_success_probability(0.4)])
    batch = transmit_across(batched, payloads)
    results = [link.transmit(bits) for link, bits in zip(scalar, payloads)]
    assert not batch.success[1] and batch.slots_used[1] == 1  # fails fast
    assert [int(s) for s in batch.slots_used] == [r.slots_used for r in results]
    assert [bool(s) for s in batch.success] == [r.success for r in results]
    probe = payload_for_success_probability(0.5)
    for batched_link, scalar_link in zip(batched, scalar):
        assert (
            batched_link.transmit(probe).slots_used
            == scalar_link.transmit(probe).slots_used
        )


def test_batch_results_match_indexing():
    """``results()`` unpacks every entry exactly like ``batch[i]``."""
    links = [
        WirelessLink(
            params=PAPER_CHANNEL_PARAMS,
            direction="uplink",
            seed=index,
            max_retransmissions=1,
        )
        for index in range(6)
    ]
    batch = transmit_across(links, payload_for_success_probability(0.3))
    results = batch.results()
    assert results == [batch[index] for index in range(len(batch))]
    for result in results:
        assert type(result.success) is bool
        assert type(result.slots_used) is int
        assert type(result.elapsed_s) is float
        assert type(result.first_attempt_success) is bool


def test_transmit_across_empty_and_validation():
    empty = transmit_across([], 1000.0)
    assert len(empty) == 0
    assert empty.results() == []
    link = WirelessLink(params=PAPER_CHANNEL_PARAMS, direction="uplink", seed=0)
    with pytest.raises(ValueError):
        transmit_across([link], np.array([1000.0, 2000.0]))


def test_transmit_uplink_across_matches_session_transmits():
    """The fleet helpers sweep each session's own uplink/downlink in order."""
    from repro.channel.arq import transmit_downlink_across, transmit_uplink_across

    payload = payload_for_success_probability(0.4)
    batched = [ArqSession(params=PAPER_CHANNEL_PARAMS, seed=index) for index in range(4)]
    scalar = [ArqSession(params=PAPER_CHANNEL_PARAMS, seed=index) for index in range(4)]
    up = transmit_uplink_across(batched, payload)
    down = transmit_downlink_across(batched, payload)
    expected_up = [session.uplink.transmit(payload) for session in scalar]
    expected_down = [session.downlink.transmit(payload) for session in scalar]
    assert [int(s) for s in up.slots_used] == [r.slots_used for r in expected_up]
    assert [int(s) for s in down.slots_used] == [r.slots_used for r in expected_down]
    assert [bool(s) for s in up.success] == [r.success for r in expected_up]
    assert [bool(s) for s in down.success] == [r.success for r in expected_down]
