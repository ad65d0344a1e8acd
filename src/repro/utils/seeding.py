"""Deterministic random-number handling.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  This
module centralizes that normalization so that experiments are reproducible by
passing a single integer through the configuration objects.
"""
from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Args:
        seed: ``None`` for nondeterministic entropy, an ``int`` or
            :class:`numpy.random.SeedSequence` for reproducible streams, or an
            existing generator which is returned unchanged.

    Returns:
        A :class:`numpy.random.Generator` instance.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        # Policy decision (analysis suite, RNG002): ``seed=None`` stays a
        # *public* escape hatch — callers who explicitly pass None are asking
        # for fresh entropy, e.g. exploratory notebooks.  Library code must
        # always thread a seed; this is the single waived construction site.
        return np.random.default_rng()  # repro: noqa[RNG002] -- sanctioned escape hatch for explicit seed=None
    if isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(seed)
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


def capture_generator_state(generator: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's exact stream position.

    The returned dict is the underlying bit generator's ``state`` mapping
    (plain ints and strings), so it survives a JSON round trip — which is how
    checkpoints embed RNG state inside ``.npz`` archives.
    """
    if not isinstance(generator, np.random.Generator):
        raise TypeError(f"expected numpy Generator, got {type(generator)!r}")
    return generator.bit_generator.state


def restore_generator_state(
    generator: np.random.Generator, state: dict
) -> np.random.Generator:
    """Restore a stream position captured by :func:`capture_generator_state`.

    The generator subsequently produces exactly the draws the captured one
    would have produced.  The bit-generator types must match (numpy refuses a
    mismatched state), so checkpoints restore onto generators constructed the
    same way as the originals.
    """
    if not isinstance(generator, np.random.Generator):
        raise TypeError(f"expected numpy Generator, got {type(generator)!r}")
    generator.bit_generator.state = state
    return generator


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Using :class:`numpy.random.SeedSequence` spawning guarantees the child
    streams are independent even when the parent seed is small.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own bit stream.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]
