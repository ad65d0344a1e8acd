"""Shared-medium scheduling: serializing many UEs' slots onto one channel.

The paper's protocol gives the single UE the whole SL band.  A fleet shares
it: at any instant the medium carries exactly one UE's slot, so a round in
which every UE must move a payload takes the *sum* of everyone's slots — the
schedulers below never change how many slots a transmission needs (that is
drawn by each UE's own :class:`~repro.channel.arq.ArqSession`), only *when*
those slots occur, i.e. each UE's completion time and therefore its
experienced latency.

Both built-in disciplines are work-conserving (the medium never idles while a
demand is pending), so the total busy time of a phase is identical across
schedulers; what differs is fairness:

* :class:`RoundRobinScheduler` — classic TDMA, one slot per UE per turn in
  cyclic order; small payloads finish early, large payloads are spread out.
* :class:`ProportionalScheduler` — weighted turns: each UE's quantum is
  proportional to its payload size, so heterogeneous fleets (mixed pooling
  configurations) give heavy payloads contiguous bursts instead of stretching
  them across many cycles.

With homogeneous payloads the proportional discipline degenerates to
round-robin.  A lone demand completes after exactly its own slots under any
work-conserving discipline; :meth:`MediumScheduler.schedule` returns that in
closed form, which is what every rotation step (the training step on a
roster of one, :data:`repro.fleet.trainer.UNCONTENDED`) pays for scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Type

import numpy as np


@dataclass(frozen=True)
class ScheduleResult:
    """Medium timeline of one scheduled phase (all demands start together).

    Attributes:
        completion_slots: per demand (in input order), the 1-based index of
            the medium slot in which that demand's last slot is transmitted.
        total_slots: medium slots occupied by the whole phase (the sum of all
            demands — the disciplines are work-conserving).
    """

    completion_slots: np.ndarray
    total_slots: int

    def completion_times_s(self, slot_duration_s: float) -> np.ndarray:
        """Per-demand completion times from the start of the phase."""
        return self.completion_slots * slot_duration_s

    def busy_time_s(self, slot_duration_s: float) -> float:
        """Total medium occupancy time of the phase."""
        return self.total_slots * slot_duration_s


#: Leaf-block width of the divide-and-conquer dominance solver: blocks up to
#: this size are solved with one broadcasted comparison instead of recursing.
_DOMINANCE_LEAF = 64


def _dominated_prefix_sums(ranks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``out[i] = sum(weights[j] for j < i if ranks[j] <= ranks[i])``.

    An offline 2-D dominance partial sum, solved in O(N log N) without any
    per-element Python loop: pad to a power-of-two length (sentinel ranks
    never dominate, zero weights never contribute), solve leaf blocks of
    ``_DOMINANCE_LEAF`` elements with one broadcasted comparison each, then
    double block sizes — at every level each right half-block queries its
    already-sorted left sibling via ``searchsorted`` over that sibling's
    rank-ordered weight prefix sums, and the two siblings are merged to keep
    the invariant.  The number of numpy calls is O(blocks), so fleet-sized
    inputs cost a few hundred vector ops total.
    """
    count = len(ranks)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    size = _DOMINANCE_LEAF
    while size < count:
        size *= 2
    padded_ranks = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    padded_ranks[:count] = ranks
    padded_weights = np.zeros(size, dtype=np.int64)
    padded_weights[:count] = weights
    out = np.zeros(size, dtype=np.int64)

    # Leaf level: within each block, one (blocks, leaf, leaf) dominance mask.
    blocks = size // _DOMINANCE_LEAF
    block_ranks = padded_ranks.reshape(blocks, _DOMINANCE_LEAF)
    positions = np.arange(_DOMINANCE_LEAF)
    dominated = (block_ranks[:, None, :] <= block_ranks[:, :, None]) & (
        positions[None, None, :] < positions[None, :, None]
    )
    block_weights = padded_weights.reshape(blocks, _DOMINANCE_LEAF)
    out[:] = (dominated * block_weights[:, None, :]).sum(axis=2).reshape(-1)

    # Rank-sorted position order within each current block (stable: ties keep
    # index order), maintained by merging as block sizes double.
    order = (
        np.argsort(block_ranks, axis=1, kind="stable")
        + (np.arange(blocks) * _DOMINANCE_LEAF)[:, None]
    ).reshape(-1)

    half = _DOMINANCE_LEAF
    while half < size:
        for start in range(0, size, 2 * half):
            mid = start + half
            stop = start + 2 * half
            left = order[start:mid]
            right = order[mid:stop]
            left_ranks = padded_ranks[left]
            # Every left element precedes every right element in original
            # order, so the right half's dominated-prefix contribution from
            # the left half is a plain rank query.
            prefix = np.cumsum(padded_weights[left])
            hits = np.searchsorted(
                left_ranks, padded_ranks[mid:stop], side="right"
            )
            out[mid:stop] += np.where(hits > 0, prefix[np.maximum(hits - 1, 0)], 0)
            # Merge the two rank-sorted halves (left wins ties: smaller index).
            insert = np.searchsorted(left_ranks, padded_ranks[right], side="right")
            merged = np.empty(2 * half, dtype=order.dtype)
            right_slots = np.arange(half) + insert
            merged[right_slots] = right
            left_mask = np.ones(2 * half, dtype=bool)
            left_mask[right_slots] = False
            merged[left_mask] = left
            order[start:stop] = merged
        half *= 2
    return out[:count]


def _weighted_round_robin_completions(
    slots: np.ndarray, quanta: np.ndarray
) -> np.ndarray:
    """Completion slots under cyclic service with per-demand quanta.

    In cycle ``c`` every still-active demand ``j`` transmits
    ``min(quanta[j], remaining_j)`` slots, in demand order.  Demand ``i``
    finishes in cycle ``C_i = ceil(slots[i] / quanta[i])`` with a final burst
    of ``r_i = slots[i] - (C_i - 1) * quanta[i]`` slots, so its completion
    slot decomposes into

    * everything transmitted in cycles before ``C_i`` — a prefix sum over
      demands sorted by final cycle,
    * the full ``quanta[j]`` bursts of earlier-indexed demands still active
      in cycle ``C_i`` (``C_j > C_i``) — the complement of a 2-D dominance
      prefix sum (:func:`_dominated_prefix_sums`),
    * the final bursts ``r_j`` of earlier-indexed demands finishing in the
      same cycle — a grouped exclusive cumulative sum, and
    * its own final burst ``r_i``.

    Everything is sorts, prefix sums, and ``searchsorted``: O(N log N)
    overall, versus the O(N^2) per-demand oracle of
    ``tests/fleet/scheduler_oracle.py`` it is validated against (directly and
    by property-based tests).
    """
    count = len(slots)
    final_cycle = -(-slots // quanta)  # ceil division
    final_burst = slots - (final_cycle - 1) * quanta

    # Slots transmitted in cycles before C_i: demands that finished earlier
    # contribute everything; the rest contribute quanta per elapsed cycle.
    order = np.argsort(final_cycle, kind="stable")
    sorted_cycles = final_cycle[order]
    finished_slots = np.cumsum(slots[order])
    finished_quanta = np.cumsum(quanta[order])
    total_quanta = finished_quanta[-1]
    below = np.searchsorted(sorted_cycles, final_cycle, side="left")
    guard = np.maximum(below - 1, 0)
    slots_from_finished = np.where(below > 0, finished_slots[guard], 0)
    quanta_finished = np.where(below > 0, finished_quanta[guard], 0)
    earlier_cycles = slots_from_finished + (final_cycle - 1) * (
        total_quanta - quanta_finished
    )

    # Earlier-indexed demands still active in cycle C_i (C_j > C_i) send full
    # quanta bursts before demand i's turn.
    _, ranks = np.unique(final_cycle, return_inverse=True)
    prefix_quanta = np.concatenate(([0], np.cumsum(quanta)[:-1]))
    finished_or_same = _dominated_prefix_sums(ranks, quanta)
    active_peers = prefix_quanta - finished_or_same

    # Earlier-indexed demands finishing in the same cycle send their final
    # bursts first.  ``order`` is stable, so same-cycle runs are contiguous
    # and index-ascending: a grouped exclusive cumsum in sorted order.
    sorted_bursts = final_burst[order]
    cum_bursts = np.cumsum(sorted_bursts)
    group_start = np.searchsorted(sorted_cycles, sorted_cycles, side="left")
    group_base = np.where(group_start > 0, cum_bursts[np.maximum(group_start - 1, 0)], 0)
    same_cycle_sorted = cum_bursts - sorted_bursts - group_base
    same_cycle_peers = np.empty(count, dtype=np.int64)
    same_cycle_peers[order] = same_cycle_sorted

    return earlier_cycles + active_peers + same_cycle_peers + final_burst


class MediumScheduler:
    """Base class: assign medium slots to a batch of transmission demands.

    Completion math runs in O(N log N) for N demands (sorts and prefix sums
    over final cycles — see :func:`_weighted_round_robin_completions`), so
    scheduling stays negligible even for 1000-UE fleets; the O(N^2) loop
    formulation is a test oracle.
    """

    #: Registry key (set by subclasses).
    name: str = ""

    def schedule(
        self,
        slot_demands: Sequence[int],
        payload_bits: Optional[Sequence[float]] = None,
    ) -> ScheduleResult:
        """Serialize ``slot_demands`` onto the medium.

        Args:
            slot_demands: slots required by each transmission (one entry per
                UE taking part in the phase; each is >= 1 as drawn by the
                UE's own ARQ session).
            payload_bits: payload size per demand, used by payload-aware
                disciplines to size their quanta (ignored by round-robin).

        Returns:
            Completion slot per demand plus the total occupancy.
        """
        slots = np.asarray(slot_demands, dtype=np.int64)
        if slots.ndim != 1:
            raise ValueError("slot_demands must be one-dimensional")
        if len(slots) == 0:
            return ScheduleResult(
                completion_slots=np.zeros(0, dtype=np.int64), total_slots=0
            )
        if (slots < 1).any():
            raise ValueError("every slot demand must be at least 1")
        if len(slots) == 1:
            # A lone demand owns the medium: every work-conserving
            # discipline completes it after exactly its own slots.
            return ScheduleResult(completion_slots=slots, total_slots=int(slots[0]))
        quanta = self._quanta(slots, payload_bits)
        completions = _weighted_round_robin_completions(slots, quanta)
        return ScheduleResult(
            completion_slots=completions, total_slots=int(slots.sum())
        )

    def _quanta(
        self, slots: np.ndarray, payload_bits: Optional[Sequence[float]]
    ) -> np.ndarray:
        raise NotImplementedError


class RoundRobinScheduler(MediumScheduler):
    """TDMA: one slot per UE per turn, cyclically over still-active UEs."""

    name = "round_robin"

    def _quanta(self, slots, payload_bits):
        return np.ones(len(slots), dtype=np.int64)


class ProportionalScheduler(MediumScheduler):
    """Weighted turns: per-UE quantum proportional to its payload size.

    The smallest payload in the phase gets a quantum of one slot; every other
    UE gets ``round(payload / smallest)`` slots per turn, capped at
    ``max_quantum``.  Without the cap, a heterogeneous fleet (e.g. a float32
    UE next to an int4 or top-k UE) would yield multi-thousand-slot
    contiguous bursts that starve the small-payload members for entire
    quanta.  Without payload sizes (or with equal ones) this is plain
    round-robin.
    """

    name = "proportional"

    #: Default burst-length cap, in slots per turn.
    DEFAULT_MAX_QUANTUM = 64

    def __init__(self, max_quantum: int = DEFAULT_MAX_QUANTUM):
        if max_quantum < 1:
            raise ValueError("max_quantum must be at least 1")
        self.max_quantum = int(max_quantum)

    def _quanta(self, slots, payload_bits):
        if payload_bits is None:
            return np.ones(len(slots), dtype=np.int64)
        bits = np.asarray(payload_bits, dtype=np.float64)
        if bits.shape != slots.shape:
            raise ValueError("payload_bits must match slot_demands in length")
        if (bits <= 0).any():
            raise ValueError("payload_bits must be strictly positive")
        quanta = np.maximum(1, np.round(bits / bits.min())).astype(np.int64)
        return np.minimum(quanta, self.max_quantum)


#: Built-in disciplines, keyed by their registry name.
SCHEDULERS: Dict[str, Type[MediumScheduler]] = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    ProportionalScheduler.name: ProportionalScheduler,
}


def scheduler_from_name(name: str) -> MediumScheduler:
    """Instantiate a built-in medium scheduler by name."""
    try:
        return SCHEDULERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None
