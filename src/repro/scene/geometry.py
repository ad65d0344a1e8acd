"""Basic 3-D geometry primitives used by the scene simulator.

The corridor scene is deliberately simple: the only solid objects are
axis-aligned boxes (pedestrian bodies, walls), so ray casting for the depth
camera and line-of-sight tests for the mmWave link reduce to ray/segment vs
axis-aligned-bounding-box (AABB) intersection tests implemented with the slab
method.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


def as_point(value) -> np.ndarray:
    """Coerce ``value`` into a 3-vector of floats."""
    point = np.asarray(value, dtype=np.float64)
    if point.shape != (3,):
        raise ValueError(f"expected a 3-D point, got shape {point.shape}")
    return point


@dataclass(frozen=True)
class AxisAlignedBox:
    """Axis-aligned box defined by its minimum and maximum corners."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", as_point(self.minimum))
        object.__setattr__(self, "maximum", as_point(self.maximum))
        if np.any(self.maximum < self.minimum):
            raise ValueError("box maximum must be >= minimum in every axis")

    @classmethod
    def from_center(cls, center, size) -> "AxisAlignedBox":
        """Build a box from its center point and edge lengths."""
        center = as_point(center)
        size = as_point(size)
        if np.any(size < 0):
            raise ValueError("box size must be non-negative")
        half = size / 2.0
        return cls(center - half, center + half)

    @property
    def center(self) -> np.ndarray:
        return (self.minimum + self.maximum) / 2.0

    @property
    def size(self) -> np.ndarray:
        return self.maximum - self.minimum

    def contains(self, point) -> bool:
        """Whether ``point`` lies inside (or on the surface of) the box."""
        point = as_point(point)
        return bool(np.all(point >= self.minimum) and np.all(point <= self.maximum))



def ray_box_distances(origins, directions, minimum, maximum) -> np.ndarray:
    """Distance along each ray to the entry point of each box.

    The slab method, vectorized over rays and boxes at once.  The slabs are
    visited one axis at a time, each as a ``(boxes, rays)`` array, and the
    entry and exit parameters are folded across axes in axis order: every
    (box, ray) entry is bitwise what a one-box, one-ray slab test gives.
    Temporaries are ``(boxes, rays)``, so callers with many of both pass
    them in chunks.

    Args:
        origins: ray origins, shape ``(n, 3)`` or ``(3,)`` (one shared origin).
        directions: ray directions, shape ``(n, 3)`` or ``(3,)``; they need not
            be normalized (distances are in units of the direction length).
        minimum / maximum: box corners, shape ``(b, 3)``.

    Returns:
        Array of shape ``(b, n)`` with the parametric distance ``t >= 0`` of
        the first intersection, or ``numpy.inf`` where the ray misses the box.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if origins.shape[1] != 3 or directions.shape[1] != 3:
        raise ValueError("origins and directions must have 3 components")
    minimum = np.asarray(minimum, dtype=np.float64).reshape(-1, 3)
    maximum = np.asarray(maximum, dtype=np.float64).reshape(-1, 3)
    with np.errstate(divide="ignore"):
        inverse = 1.0 / directions

    t_near = t_far = None
    for axis in range(3):
        origin = origins[:, axis]
        low = minimum[:, axis, None]
        high = maximum[:, axis, None]
        with np.errstate(invalid="ignore"):
            t_low = (low - origin) * inverse[:, axis]
            t_high = (high - origin) * inverse[:, axis]
        # Where the direction component is zero the ray is parallel to the
        # slab: it intersects only if the origin lies inside the slab.
        # Inside-slab rays are unconstrained by this axis (-inf / +inf);
        # outside-slab rays can never hit the box, which we encode by an
        # empty interval (+inf / +inf).
        parallel = directions[:, axis] == 0.0  # repro: noqa[HYG001] -- exact parallel-axis mask
        if parallel.any():
            inside = (origin >= low) & (origin <= high)
            t_low = np.where(parallel, np.where(inside, -np.inf, np.inf), t_low)
            t_high = np.where(parallel, np.inf, t_high)
        near = np.minimum(t_low, t_high)
        far = np.maximum(t_low, t_high, out=t_high)
        if t_near is None:
            t_near, t_far = near, far
        else:
            np.maximum(t_near, near, out=t_near)
            np.minimum(t_far, far, out=t_far)

    hit = (t_far >= t_near) & (t_far >= 0.0)
    distances = np.where(t_near >= 0.0, t_near, 0.0)
    return np.where(hit, distances, np.inf)


def segment_box_hits(start, end, minimum, maximum) -> np.ndarray:
    """Whether the segment from ``start`` to ``end`` intersects each box.

    Vectorized over boxes (corners of shape ``(b, 3)``); returns ``(b,)``
    booleans.
    """
    start = as_point(start)
    end = as_point(end)
    direction = end - start
    if row_norms(direction[None, :])[0] == 0.0:  # repro: noqa[HYG001] -- exact degenerate-segment guard
        minimum = np.asarray(minimum, dtype=np.float64)
        maximum = np.asarray(maximum, dtype=np.float64)
        return np.all((start >= minimum) & (start <= maximum), axis=1)
    return ray_box_distances(start, direction, minimum, maximum)[:, 0] <= 1.0


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(n, 3)`` array.

    Each row goes through the same dot-product kernel ``np.linalg.norm``
    uses on one vector, so the result is bitwise equal to the per-row call
    (``norm(axis=1)`` and ``einsum`` sum in a different order).
    """
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None]))[:, 0, 0]


def project_points_onto_segment(points, start, end) -> Tuple[np.ndarray, np.ndarray]:
    """Project each row of ``points`` onto the segment ``start-end``.

    Returns ``(fractions, distances)``, both of shape ``(n,)``: the position
    of the closest segment point, clipped to ``[0, 1]`` and measured from
    ``start``, and the Euclidean distance to it.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    start = as_point(start)
    end = as_point(end)
    direction = end - start
    squared_length = float(direction @ direction)
    if squared_length == 0.0:  # repro: noqa[HYG001] -- exact degenerate-segment guard
        return np.zeros(len(points)), row_norms(points - start)
    offsets = np.matmul((points - start)[:, None, :], direction[:, None])[:, 0, 0]
    fractions = offsets / squared_length
    # ``min(1, max(0, f))`` on Python floats, NaN and signed zero included.
    fractions = np.where(fractions > 0.0, fractions, 0.0)
    fractions = np.where(fractions < 1.0, fractions, 1.0)
    closest = start + fractions[:, None] * direction
    return fractions, row_norms(points - closest)


def reduce_by_frame(ufunc, totals: np.ndarray, frame_ids, values: np.ndarray) -> np.ndarray:
    """Fold the rows of each frame into ``totals`` in row order, in place.

    ``totals[f]`` becomes ``ufunc(...ufunc(ufunc(totals[f], v0), v1)..., vk)``
    over the rows ``v0..vk`` of ``values`` whose ``frame_ids`` entry is
    ``f``, so the result is bitwise what a per-frame loop over the rows
    gives.  ``frame_ids`` must be nondecreasing.  The fold runs slot by slot
    (slot ``s`` is the ``s``-th row of every frame), one array operation per
    slot.
    """
    frame_ids = np.asarray(frame_ids)
    if not len(frame_ids):
        return totals
    slots = np.arange(len(frame_ids)) - np.searchsorted(frame_ids, frame_ids)
    for slot in range(int(slots.max()) + 1):
        rows = np.flatnonzero(slots == slot)
        frames = frame_ids[rows]
        totals[frames] = ufunc(totals[frames], values[rows])
    return totals


@dataclass
class Pose:
    """Position and viewing direction of a sensor (the depth camera)."""

    position: np.ndarray
    forward: np.ndarray
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.position = as_point(self.position)
        self.forward = _normalize(as_point(self.forward))
        self.up = _normalize(as_point(self.up))
        if abs(float(self.forward @ self.up)) > 0.999:
            raise ValueError("forward and up directions are (nearly) collinear")

    @property
    def right(self) -> np.ndarray:
        """Unit vector pointing to the right of the viewing direction."""
        return _normalize(np.cross(self.forward, self.up))

    @property
    def true_up(self) -> np.ndarray:
        """Up vector re-orthogonalized against forward."""
        return _normalize(np.cross(self.right, self.forward))


def _normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:  # repro: noqa[HYG001] -- exact zero-vector guard
        raise ValueError("cannot normalize the zero vector")
    return vector / norm
