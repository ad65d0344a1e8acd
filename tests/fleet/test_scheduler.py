"""Tests for the shared-medium schedulers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    ProportionalScheduler,
    RoundRobinScheduler,
    scheduler_from_name,
)

from tests.fleet.scheduler_oracle import weighted_round_robin_completions_reference


def reference_completions(slots, quanta):
    """Slot-by-slot reference simulation of cyclic weighted service."""
    remaining = list(slots)
    completions = [0] * len(slots)
    clock = 0
    while any(remaining):
        for index, quantum in enumerate(quanta):
            if remaining[index] <= 0:
                continue
            burst = min(quantum, remaining[index])
            clock += burst
            remaining[index] -= burst
            if remaining[index] == 0:
                completions[index] = clock
    return completions


# -- round-robin ---------------------------------------------------------------------


def test_round_robin_single_demand_is_identity():
    result = RoundRobinScheduler().schedule([7])
    assert result.total_slots == 7
    assert result.completion_slots.tolist() == [7]


def test_round_robin_matches_reference_simulation():
    rng = np.random.default_rng(0)
    scheduler = RoundRobinScheduler()
    for _ in range(50):
        count = int(rng.integers(1, 8))
        slots = rng.integers(1, 30, size=count).tolist()
        result = scheduler.schedule(slots)
        expected = reference_completions(slots, [1] * count)
        assert result.completion_slots.tolist() == expected
        assert result.total_slots == sum(slots)


def test_round_robin_work_conserving():
    result = RoundRobinScheduler().schedule([5, 3, 9, 1])
    # The last demand to finish completes exactly when the medium goes idle.
    assert result.completion_slots.max() == result.total_slots == 18


def test_round_robin_small_demands_finish_early():
    result = RoundRobinScheduler().schedule([100, 1])
    # Demand 1 only waits for demand 0's first slot.
    assert result.completion_slots[1] == 2
    assert result.completion_slots[0] == 101


def test_round_robin_large_demands_no_slot_loop():
    # Completion math is closed-form per demand: huge demands must be instant.
    result = RoundRobinScheduler().schedule([10**12, 3])
    assert result.completion_slots[1] == 6  # 3 cycles of 2 slots
    assert result.completion_slots[0] == 10**12 + 3


def test_empty_and_invalid_demands():
    result = RoundRobinScheduler().schedule([])
    assert result.total_slots == 0
    assert len(result.completion_slots) == 0
    with pytest.raises(ValueError):
        RoundRobinScheduler().schedule([3, 0])


def test_schedule_result_time_conversions():
    result = RoundRobinScheduler().schedule([2, 2])
    assert result.busy_time_s(1e-3) == pytest.approx(4e-3)
    assert result.completion_times_s(1e-3).tolist() == pytest.approx([3e-3, 4e-3])


# -- proportional --------------------------------------------------------------------


def test_proportional_equal_payloads_degenerates_to_round_robin():
    slots = [5, 3, 9, 1]
    equal_bits = [1000.0] * 4
    round_robin = RoundRobinScheduler().schedule(slots)
    proportional = ProportionalScheduler().schedule(slots, payload_bits=equal_bits)
    assert (
        proportional.completion_slots.tolist()
        == round_robin.completion_slots.tolist()
    )


def test_proportional_matches_reference_simulation():
    rng = np.random.default_rng(1)
    scheduler = ProportionalScheduler()
    for _ in range(50):
        count = int(rng.integers(1, 6))
        slots = rng.integers(1, 30, size=count).tolist()
        bits = (rng.integers(1, 5, size=count) * 1000.0).tolist()
        result = scheduler.schedule(slots, payload_bits=bits)
        quanta = np.minimum(
            np.maximum(1, np.round(np.array(bits) / min(bits))).astype(int),
            scheduler.max_quantum,
        )
        expected = reference_completions(slots, quanta.tolist())
        assert result.completion_slots.tolist() == expected
        assert result.total_slots == sum(slots)


def test_proportional_heavy_payload_gets_bursts():
    # UE 0 has a 3x payload: it transmits 3 slots per turn instead of 1, so
    # its completion is earlier than under plain round-robin.
    slots = [30, 10]
    proportional = ProportionalScheduler().schedule(
        slots, payload_bits=[3000.0, 1000.0]
    )
    round_robin = RoundRobinScheduler().schedule(slots)
    assert proportional.completion_slots[0] < round_robin.completion_slots[0]
    assert proportional.total_slots == round_robin.total_slots == 40


def test_proportional_quantum_is_capped():
    # A 1000x payload ratio (float32 UE next to a top-k UE) must not produce
    # thousand-slot bursts: the quantum saturates at max_quantum.
    slots = [200, 2]
    bits = [1_000_000.0, 1000.0]
    capped = ProportionalScheduler().schedule(slots, payload_bits=bits)
    expected = reference_completions(
        slots, [ProportionalScheduler.DEFAULT_MAX_QUANTUM, 1]
    )
    assert capped.completion_slots.tolist() == expected
    # The small-payload UE is served once per capped cycle instead of waiting
    # behind the heavy UE's entire demand in one uncapped burst.
    uncapped = ProportionalScheduler(max_quantum=10**9).schedule(
        slots, payload_bits=bits
    )
    assert capped.completion_slots[1] < uncapped.completion_slots[1]
    assert uncapped.completion_slots[1] == sum(slots)


def test_proportional_cap_preserves_work_conservation():
    rng = np.random.default_rng(7)
    for max_quantum in (1, 4, 64):
        scheduler = ProportionalScheduler(max_quantum=max_quantum)
        for _ in range(20):
            count = int(rng.integers(1, 6))
            slots = rng.integers(1, 40, size=count).tolist()
            # Payload ratios well beyond the cap, so it always binds.
            bits = (rng.integers(1, 4, size=count) * 1e6 + 1000.0).tolist()
            result = scheduler.schedule(slots, payload_bits=bits)
            quanta = np.minimum(
                np.maximum(1, np.round(np.array(bits) / min(bits))).astype(int),
                max_quantum,
            )
            expected = reference_completions(slots, quanta.tolist())
            assert result.completion_slots.tolist() == expected
            # Work conservation: the medium never idles, so the last finisher
            # completes exactly when the total demand is drained.
            assert result.completion_slots.max() == result.total_slots == sum(slots)


def test_proportional_cap_of_one_is_round_robin():
    slots = [30, 10, 5]
    bits = [9000.0, 3000.0, 1000.0]
    capped = ProportionalScheduler(max_quantum=1).schedule(slots, payload_bits=bits)
    round_robin = RoundRobinScheduler().schedule(slots)
    assert capped.completion_slots.tolist() == round_robin.completion_slots.tolist()


def test_proportional_invalid_cap():
    with pytest.raises(ValueError):
        ProportionalScheduler(max_quantum=0)


def test_proportional_payload_validation():
    with pytest.raises(ValueError):
        ProportionalScheduler().schedule([3, 3], payload_bits=[1.0])
    with pytest.raises(ValueError):
        ProportionalScheduler().schedule([3, 3], payload_bits=[1.0, -1.0])


# -- registry ------------------------------------------------------------------------


def test_scheduler_from_name():
    assert isinstance(scheduler_from_name("round_robin"), RoundRobinScheduler)
    assert isinstance(scheduler_from_name("proportional"), ProportionalScheduler)
    with pytest.raises(ValueError):
        scheduler_from_name("fifo")


# -- O(N log N) completions vs. the retained O(N^2) oracle ---------------------------


def _completion_pair(slots, quanta):
    from repro.fleet.scheduler import _weighted_round_robin_completions

    slots = np.asarray(slots, dtype=np.int64)
    quanta = np.asarray(quanta, dtype=np.int64)
    return (
        _weighted_round_robin_completions(slots, quanta),
        weighted_round_robin_completions_reference(slots, quanta),
    )


def test_fast_completions_match_oracle_and_simulation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        count = int(rng.integers(1, 12))
        slots = rng.integers(1, 40, size=count)
        quanta = rng.integers(1, 12, size=count)
        fast, oracle = _completion_pair(slots, quanta)
        assert fast.tolist() == oracle.tolist()
        assert oracle.tolist() == reference_completions(
            slots.tolist(), quanta.tolist()
        )


def test_fast_completions_match_oracle_at_scale():
    rng = np.random.default_rng(11)
    slots = rng.integers(1, 10**6, size=1000)
    quanta = rng.integers(1, 64, size=1000)
    fast, oracle = _completion_pair(slots, quanta)
    assert fast.tolist() == oracle.tolist()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=128),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_fast_completions_match_oracle_property(demands):
    slots = [demand[0] for demand in demands]
    quanta = [demand[1] for demand in demands]
    fast, oracle = _completion_pair(slots, quanta)
    assert fast.tolist() == oracle.tolist()


@given(
    st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=20),
    st.integers(min_value=10**4, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_fast_completions_quanta_above_demand(slots, big_quantum):
    # Quanta caps larger than any demand: every demand finishes in cycle 1,
    # so completions degenerate to plain prefix sums in demand order.
    quanta = [big_quantum] * len(slots)
    fast, oracle = _completion_pair(slots, quanta)
    assert fast.tolist() == oracle.tolist()
    assert fast.tolist() == np.cumsum(slots).tolist()


def test_fast_completions_single_demand_and_ties():
    for slots, quanta in (
        ([1], [1]),
        ([64], [7]),
        ([5, 5, 5], [2, 2, 2]),
        ([10**12, 3], [1, 1]),
        ([3, 3, 3, 3], [4, 4, 4, 4]),
    ):
        fast, oracle = _completion_pair(slots, quanta)
        assert fast.tolist() == oracle.tolist()
