"""Small-scale fading of the split-learning link.

The paper models the multi-path channel gain ``h_t`` as an exponential random
variable with unit mean (i.e. Rayleigh fading in amplitude), independent and
identically distributed across time slots.

Because the per-slot fading is i.i.d., the number of slots until a payload is
first decoded is geometric in the per-slot success probability ``p``.  Rather
than drawing one gain per slot (expected ``1/p`` draws per payload),
:func:`slots_from_fading` maps *one* exponential fading draw per payload to a
``Geometric(p)`` slot count by inverse-transform sampling — statistically
identical to the per-slot loop, and O(1) per payload.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.utils.seeding import (
    SeedLike,
    as_generator,
    capture_generator_state,
    restore_generator_state,
)


def slots_from_fading(
    draws: np.ndarray,
    success_probability: float | np.ndarray,
    mean: float = 1.0,
) -> np.ndarray:
    """Map exponential fading draws to ``Geometric(p)`` slot counts.

    With ``E = draws / mean`` a unit-rate exponential and
    ``rate = -log(1 - p)``, ``ceil(E / rate)`` is geometric on {1, 2, ...}
    with success probability ``p`` (``P[slots > k] = (1 - p)^k``): the same
    distribution the per-slot retry loop samples, from a single draw.

    Args:
        draws: exponential fading gains with mean ``mean``.
        success_probability: per-slot decoding success probability ``p`` in
            ``(0, 1]`` — a scalar shared by all draws, or an array
            broadcastable against ``draws`` for per-payload probabilities
            (variable payload sizes from data-dependent codecs).
        mean: mean of the exponential draws (the fading process mean).

    Returns:
        Slot counts as ``float64`` (values can exceed the ``int64`` range for
        vanishing ``p``; callers truncate or cap before integer conversion).
    """
    probability = np.asarray(success_probability, dtype=np.float64)
    if probability.size and not (
        probability.min() > 0.0 and probability.max() <= 1.0
    ):
        raise ValueError("success_probability must be in (0, 1]")
    draws = np.asarray(draws, dtype=np.float64)
    if probability.ndim == 0:
        if probability == 1.0:  # repro: noqa[HYG001] -- exact p=1 short-circuit
            return np.ones_like(draws)
        rate = -math.log1p(-probability)
        return np.maximum(np.ceil(draws / (mean * rate)), 1.0)
    # Per-element probabilities: p == 1 yields rate == inf, so the division
    # collapses to 0 and the max() pins those entries at one slot.
    with np.errstate(divide="ignore"):
        rate = -np.log1p(-probability)
    return np.maximum(np.ceil(draws / (mean * rate)), 1.0)


@dataclass
class ExponentialFadingProcess:
    """I.i.d. unit-mean exponential power fading, one draw per time slot."""

    mean: float = 1.0
    seed: SeedLike = None

    def __post_init__(self):
        if self.mean <= 0:
            raise ValueError("mean must be strictly positive")
        self._rng = as_generator(self.seed)

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` i.i.d. fading gains."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._rng.exponential(self.mean, size=count)

    def sample_one(self) -> float:
        """Draw a single fading gain."""
        return float(self._rng.exponential(self.mean))

    def state_dict(self) -> dict:
        """JSON-able snapshot of the fading stream position (for checkpoints)."""
        return {"rng": capture_generator_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a stream position captured by :meth:`state_dict`."""
        restore_generator_state(self._rng, state["rng"])
