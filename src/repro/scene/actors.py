"""Moving actors (pedestrians) that block the mmWave link.

The measured dataset of the original paper was collected in an indoor
environment where people repeatedly walked through the line of sight between
the 60 GHz transmitter and receiver.  The pedestrian models here reproduce
that workload: bodies are axis-aligned boxes that cross the corridor at
walking speed, with randomized spawn times, speeds and crossing positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.seeding import SeedLike, as_generator
from repro.utils.validation import positive

#: Typical adult body dimensions used for the blocking box [m].
DEFAULT_BODY_SIZE = (0.3, 0.5, 1.75)


@dataclass
class PedestrianState:
    """Snapshot of a pedestrian at a given time."""

    position: np.ndarray
    velocity: np.ndarray
    active: bool


class Pedestrian:
    """Base class for pedestrian trajectory models.

    A pedestrian exposes :meth:`states_at`, its activity and floor position
    at an array of absolute times, and :meth:`bodies_at`, the axis-aligned
    boxes its body occupies at the times it is in the scene.  The scene
    evaluates every frame of a run in one call.  :meth:`state_at` is the
    one-time view of :meth:`states_at`.

    A subclass implements either :meth:`state_at` (the default
    :meth:`states_at` then evaluates it once per time) or :meth:`states_at`
    with array operations, as the built-in models do.
    """

    def __init__(self, body_size=DEFAULT_BODY_SIZE):
        self.body_size = np.asarray(body_size, dtype=np.float64)
        if np.any(self.body_size <= 0):
            raise ValueError("body_size entries must be positive")

    def state_at(self, time_s: float) -> PedestrianState:
        raise NotImplementedError

    def states_at(self, times_s) -> Tuple[np.ndarray, np.ndarray]:
        """Activity ``(n,)`` and floor position ``(n, 3)`` at each time."""
        states = [self.state_at(float(t)) for t in np.asarray(times_s, dtype=np.float64)]
        active = np.array([state.active for state in states], dtype=bool)
        positions = np.array([state.position for state in states], dtype=np.float64)
        return active, positions.reshape(-1, 3)

    def bodies_at(self, times_s) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Body boxes at the times the pedestrian is active.

        Returns:
            ``(indices, minimum, maximum)``: the positions in ``times_s`` at
            which the pedestrian is active, and the ``(k, 3)`` corners of its
            body box at each of them.
        """
        active, positions = self.states_at(times_s)
        indices = np.flatnonzero(active)
        # The position marks the point on the floor under the body center.
        center = positions[indices] + np.array([0.0, 0.0, self.body_size[2] / 2.0])
        half = self.body_size / 2.0
        return indices, center - half, center + half


class CrossingPedestrian(Pedestrian):
    """A pedestrian walking across the corridor, perpendicular to the link.

    The link is assumed to run along the x axis.  The pedestrian appears at
    ``start_y``, walks with constant ``speed_mps`` towards ``end_y`` at a fixed
    ``crossing_x`` position, and disappears after reaching the end point.

    Args:
        crossing_x: x coordinate at which the pedestrian crosses the link [m].
        start_time_s: absolute time at which the walk starts [s].
        speed_mps: walking speed [m/s]; must be positive.
        start_y / end_y: lateral start and end positions [m].
        body_size: (x, y, z) edge lengths of the body box [m].
    """

    def __init__(
        self,
        crossing_x: float,
        start_time_s: float,
        speed_mps: float = 1.0,
        start_y: float = -2.0,
        end_y: float = 2.0,
        body_size=DEFAULT_BODY_SIZE,
    ):
        super().__init__(body_size)
        if speed_mps <= 0:
            raise ValueError("speed_mps must be strictly positive")
        if start_y == end_y:
            raise ValueError("start_y and end_y must differ")
        self.crossing_x = float(crossing_x)
        self.start_time_s = float(start_time_s)
        self.speed_mps = float(speed_mps)
        self.start_y = float(start_y)
        self.end_y = float(end_y)

    @property
    def duration_s(self) -> float:
        """Time the pedestrian spends in the scene."""
        return abs(self.end_y - self.start_y) / self.speed_mps

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s

    def states_at(self, times_s) -> Tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times_s, dtype=np.float64)
        active = (times >= self.start_time_s) & (times <= self.end_time_s)
        direction = np.sign(self.end_y - self.start_y)
        y = self.start_y + direction * self.speed_mps * (times - self.start_time_s)
        positions = np.zeros((len(times), 3))
        positions[:, 0] = self.crossing_x
        # Outside its walk the pedestrian waits at the start point.
        positions[:, 1] = np.where(active, y, self.start_y)
        return active, positions

    def state_at(self, time_s: float) -> PedestrianState:
        active, positions = self.states_at([time_s])
        if not active[0]:
            return PedestrianState(positions[0], np.zeros(3), active=False)
        direction = np.sign(self.end_y - self.start_y)
        velocity = np.array([0.0, direction * self.speed_mps, 0.0])
        return PedestrianState(positions[0], velocity, active=True)


class LoiteringPedestrian(Pedestrian):
    """A pedestrian standing still (optionally swaying) at a fixed spot.

    Useful for modelling persistent non-LoS conditions and for testing that a
    static blocker produces a constant attenuation.
    """

    def __init__(
        self,
        position,
        start_time_s: float = 0.0,
        end_time_s: float = float("inf"),
        sway_amplitude_m: float = 0.0,
        sway_period_s: float = 2.0,
        body_size=DEFAULT_BODY_SIZE,
    ):
        super().__init__(body_size)
        if end_time_s <= start_time_s:
            raise ValueError("end_time_s must exceed start_time_s")
        if sway_period_s <= 0:
            raise ValueError("sway_period_s must be positive")
        self.base_position = np.asarray(position, dtype=np.float64)
        if self.base_position.shape != (3,):
            raise ValueError("position must be a 3-vector")
        self.start_time_s = float(start_time_s)
        self.end_time_s = float(end_time_s)
        self.sway_amplitude_m = float(sway_amplitude_m)
        self.sway_period_s = float(sway_period_s)

    def states_at(self, times_s) -> Tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times_s, dtype=np.float64)
        active = (times >= self.start_time_s) & (times <= self.end_time_s)
        sway = self.sway_amplitude_m * np.sin(
            2.0 * np.pi * (times - self.start_time_s) / self.sway_period_s
        )
        offsets = np.zeros((len(times), 3))
        offsets[:, 1] = sway
        return active, self.base_position + offsets

    def state_at(self, time_s: float) -> PedestrianState:
        active, positions = self.states_at([time_s])
        return PedestrianState(positions[0], np.zeros(3), active=bool(active[0]))


@dataclass
class PedestrianTrafficConfig:
    """Random crossing-traffic parameters for :func:`generate_crossing_traffic`.

    Attributes:
        mean_interarrival_s: mean time between consecutive crossings [s];
            crossings follow a Poisson process with this mean spacing.
        speed_range_mps: (min, max) uniform walking speed range.
        crossing_x_range: (min, max) range of x positions where pedestrians
            cross the link.
        corridor_half_width_m: pedestrians walk from ``-half`` to ``+half`` (or
            the reverse) in y.
        body_size: pedestrian body box dimensions.
    """

    mean_interarrival_s: float = 4.0
    speed_range_mps: tuple = (0.8, 1.5)
    crossing_x_range: tuple = (1.0, 3.0)
    corridor_half_width_m: float = 2.0
    body_size: tuple = DEFAULT_BODY_SIZE

    def __post_init__(self):
        positive("mean_interarrival_s", self.mean_interarrival_s)
        if self.speed_range_mps[0] <= 0 or self.speed_range_mps[1] < self.speed_range_mps[0]:
            raise ValueError("speed_range_mps must be positive and ordered")
        if self.crossing_x_range[1] < self.crossing_x_range[0]:
            raise ValueError("crossing_x_range must be ordered")
        positive("corridor_half_width_m", self.corridor_half_width_m)

    def with_interarrival_scale(self, factor: float) -> "PedestrianTrafficConfig":
        """Copy with the mean interarrival time multiplied by ``factor``.

        Factors below one densify the traffic; reduced experiment scales use
        this so short datasets still contain enough blockage events.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        from dataclasses import replace

        return replace(
            self, mean_interarrival_s=self.mean_interarrival_s * factor
        )


def generate_crossing_traffic(
    duration_s: float,
    config: PedestrianTrafficConfig | None = None,
    seed: SeedLike = None,
) -> List[CrossingPedestrian]:
    """Generate random crossing pedestrians over ``duration_s`` seconds.

    Crossing start times follow a Poisson process; each pedestrian gets an
    independent speed, crossing position and walking direction.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    config = config or PedestrianTrafficConfig()
    rng = as_generator(seed)

    pedestrians: List[CrossingPedestrian] = []
    time_s = float(rng.exponential(config.mean_interarrival_s))
    while time_s < duration_s:
        speed = float(rng.uniform(*config.speed_range_mps))
        crossing_x = float(rng.uniform(*config.crossing_x_range))
        half_width = config.corridor_half_width_m
        if rng.random() < 0.5:
            start_y, end_y = -half_width, half_width
        else:
            start_y, end_y = half_width, -half_width
        pedestrians.append(
            CrossingPedestrian(
                crossing_x=crossing_x,
                start_time_s=time_s,
                speed_mps=speed,
                start_y=start_y,
                end_y=end_y,
                body_size=config.body_size,
            )
        )
        time_s += float(rng.exponential(config.mean_interarrival_s))
    return pedestrians


def periodic_crossing_traffic(
    duration_s: float,
    period_s: float = 4.0,
    first_crossing_s: float = 2.0,
    speed_mps: float = 1.2,
    crossing_x: float = 2.0,
    corridor_half_width_m: float = 2.0,
    body_size=DEFAULT_BODY_SIZE,
) -> List[CrossingPedestrian]:
    """Deterministic, evenly spaced crossings (useful for tests and figures)."""
    if duration_s <= 0 or period_s <= 0:
        raise ValueError("duration_s and period_s must be positive")
    pedestrians = []
    time_s = first_crossing_s
    direction = 1
    while time_s < duration_s:
        start_y = -corridor_half_width_m * direction
        end_y = corridor_half_width_m * direction
        pedestrians.append(
            CrossingPedestrian(
                crossing_x=crossing_x,
                start_time_s=time_s,
                speed_mps=speed_mps,
                start_y=start_y,
                end_y=end_y,
                body_size=body_size,
            )
        )
        direction *= -1
        time_s += period_s
    return pedestrians
