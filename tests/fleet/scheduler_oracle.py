"""The O(N^2) per-demand oracle of the weighted round-robin completions.

``repro.fleet.scheduler._weighted_round_robin_completions`` computes every
demand's completion slot in O(N log N) with sorts and prefix sums.
:func:`weighted_round_robin_completions_reference` computes the same cyclic
service one Python-level pass per demand; ``tests/fleet/test_scheduler.py``
checks the two agree, directly and by property-based tests.
"""
from __future__ import annotations

import numpy as np


def weighted_round_robin_completions_reference(
    slots: np.ndarray, quanta: np.ndarray
) -> np.ndarray:
    """Completion slot of each demand: demand ``i`` needs ``slots[i]`` slots
    and is served ``quanta[i]`` per cycle, in index order."""
    count = len(slots)
    completions = np.zeros(count, dtype=np.int64)
    for i in range(count):
        final_cycle = -(-slots[i] // quanta[i])  # ceil division
        done_before = (final_cycle - 1) * quanta
        earlier_cycles = np.minimum(slots, done_before).sum()
        peers = np.minimum(
            quanta[:i], np.maximum(slots[:i] - done_before[:i], 0)
        ).sum()
        own_final_burst = slots[i] - (final_cycle - 1) * quanta[i]
        completions[i] = earlier_cycles + peers + own_final_burst
    return completions
