"""Corridor scene combining the mmWave link endpoints, a depth camera and
pedestrian traffic.

``CorridorScene`` is the substrate that replaces the physical measurement
environment of the paper: a transmitter (UE) and receiver (BS) separated by a
few metres, with people repeatedly crossing the line of sight.

:meth:`CorridorScene.simulate` steps the scene through a run of frames at the
depth-camera frame rate in one batched pass and returns a :class:`FrameBatch`:
the depth images plus :class:`BlockerArrays`, the link geometry of every
(frame, active body) pair, from which the mmWave power model derives received
power samples.  The pass evaluates every pedestrian at every frame time with
array operations, ray-casts the static walls once, runs one slab test over
all (frame, body) pairs in bounded chunks and computes the blocker geometry
for all pairs at once.  Per-frame reductions (nearest hit, attenuation sums)
combine each frame's bodies in pedestrian order, so the batch is bitwise what
a frame-by-frame, body-by-body loop produces.  ``frames`` is a view of the
same pass.
"""
from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.scene.actors import Pedestrian
from repro.scene.camera import DepthCamera, DepthCameraIntrinsics, default_ue_camera
from repro.scene.geometry import (
    AxisAlignedBox,
    project_points_onto_segment,
    segment_box_hits,
)

#: Default Kinect-like frame interval used in the paper (gamma = 33 ms).
DEFAULT_FRAME_INTERVAL_S = 0.033


@dataclass
class BlockerGeometry:
    """Geometry of one pedestrian relative to the TX-RX link at one instant.

    Attributes:
        blocking: whether the body box intersects the straight LoS segment.
        clearance_m: shortest distance from the body center line to the link
            (0 when the body center is exactly on the link).
        distance_from_tx_m: distance along the link of the closest point.
        distance_from_rx_m: remaining distance to the receiver.
        body_width_m: width of the body transverse to the link.
    """

    blocking: bool
    clearance_m: float
    distance_from_tx_m: float
    distance_from_rx_m: float
    body_width_m: float


@dataclass
class SceneFrame:
    """One simulated camera frame and the associated link geometry."""

    index: int
    time_s: float
    depth_image: np.ndarray
    blockers: List[BlockerGeometry] = field(default_factory=list)

    @property
    def line_of_sight_blocked(self) -> bool:
        """True when at least one pedestrian box cuts the LoS segment."""
        return any(blocker.blocking for blocker in self.blockers)


@dataclass
class BlockerArrays:
    """Link geometry of every active body over a run of frames.

    One row per (frame, body) pair, ordered by frame and, within a frame, by
    pedestrian order: the order in which per-frame sums accumulate.  Each
    field is the array of the matching :class:`BlockerGeometry` attribute.

    Attributes:
        num_frames: number of frames in the run (frames may have no rows).
        frame: ``(P,)`` nondecreasing offset of each row's frame in the run.
    """

    num_frames: int
    frame: np.ndarray
    blocking: np.ndarray
    clearance_m: np.ndarray
    distance_from_tx_m: np.ndarray
    distance_from_rx_m: np.ndarray
    body_width_m: np.ndarray

    @classmethod
    def from_lists(cls, per_frame: Sequence[Sequence[BlockerGeometry]]) -> "BlockerArrays":
        """Rows of a run given as one :class:`BlockerGeometry` list per frame."""
        rows = [(offset, b) for offset, frame in enumerate(per_frame) for b in frame]
        columns = {
            name: np.array(
                [getattr(b, name) for _, b in rows],
                dtype=bool if name == "blocking" else np.float64,
            )
            for name in (f.name for f in fields(BlockerGeometry))
        }
        frame_ids = np.array([offset for offset, _ in rows], dtype=np.int64)
        return cls(num_frames=len(per_frame), frame=frame_ids, **columns)

    def frame_blockers(self, offset: int) -> List[BlockerGeometry]:
        """The :class:`BlockerGeometry` list of the frame at ``offset``."""
        low, high = np.searchsorted(self.frame, [offset, offset + 1])
        return [
            BlockerGeometry(
                blocking=bool(self.blocking[row]),
                clearance_m=float(self.clearance_m[row]),
                distance_from_tx_m=float(self.distance_from_tx_m[row]),
                distance_from_rx_m=float(self.distance_from_rx_m[row]),
                body_width_m=float(self.body_width_m[row]),
            )
            for row in range(low, high)
        ]

    @property
    def line_of_sight_blocked(self) -> np.ndarray:
        """``(num_frames,)`` flags: some body of the frame cuts the LoS."""
        hits = np.bincount(self.frame[self.blocking], minlength=self.num_frames)
        return hits > 0


@dataclass
class FrameBatch(SequenceABC):
    """A run of consecutive simulated frames, stored as arrays.

    It is a sequence of :class:`SceneFrame` views (``batch[i]``), so it can
    be passed wherever a list of frames is expected.

    Attributes:
        start_index: index of the first frame.
        times_s: ``(F,)`` frame times.
        depth_images: ``(F, H, W)`` normalized depth images.
        blockers: link geometry of every (frame, active body) pair.
    """

    start_index: int
    times_s: np.ndarray
    depth_images: np.ndarray
    blockers: BlockerArrays

    def __len__(self) -> int:
        return len(self.times_s)

    def __getitem__(self, offset: int) -> SceneFrame:
        offset = range(len(self))[offset]
        return SceneFrame(
            index=self.start_index + offset,
            time_s=float(self.times_s[offset]),
            depth_image=self.depth_images[offset],
            blockers=self.blockers.frame_blockers(offset),
        )

    @property
    def line_of_sight_blocked(self) -> np.ndarray:
        """``(F,)`` flags: some body of the frame cuts the LoS."""
        return self.blockers.line_of_sight_blocked


class CorridorScene:
    """A corridor with a UE-BS mmWave link observed by a depth camera.

    Args:
        link_distance_m: distance ``r`` between UE and BS (the paper uses 4 m).
        antenna_height_m: height of both antennas above the floor.
        pedestrians: actors that may block the link.
        frame_interval_s: camera frame interval (gamma, 33 ms in the paper).
        camera_intrinsics: resolution / field of view of the depth camera.
        include_walls: add side walls and a back wall so that images have a
            static background structure.
        corridor_half_width_m: lateral distance from the link to the walls.
    """

    def __init__(
        self,
        link_distance_m: float = 4.0,
        antenna_height_m: float = 1.0,
        pedestrians: Optional[Sequence[Pedestrian]] = None,
        frame_interval_s: float = DEFAULT_FRAME_INTERVAL_S,
        camera_intrinsics: DepthCameraIntrinsics | None = None,
        include_walls: bool = True,
        corridor_half_width_m: float = 2.5,
    ):
        if link_distance_m <= 0:
            raise ValueError("link_distance_m must be positive")
        if antenna_height_m <= 0:
            raise ValueError("antenna_height_m must be positive")
        if frame_interval_s <= 0:
            raise ValueError("frame_interval_s must be positive")
        if corridor_half_width_m <= 0:
            raise ValueError("corridor_half_width_m must be positive")

        self.link_distance_m = float(link_distance_m)
        self.antenna_height_m = float(antenna_height_m)
        self.frame_interval_s = float(frame_interval_s)
        self.corridor_half_width_m = float(corridor_half_width_m)
        self.pedestrians: List[Pedestrian] = list(pedestrians or [])

        self.ue_position = np.array([0.0, 0.0, self.antenna_height_m])
        self.bs_position = np.array(
            [self.link_distance_m, 0.0, self.antenna_height_m]
        )
        self.camera: DepthCamera = default_ue_camera(
            self.ue_position, self.bs_position, camera_intrinsics
        )
        self.static_boxes: List[AxisAlignedBox] = (
            self._build_walls() if include_walls else []
        )

    def _build_walls(self) -> List[AxisAlignedBox]:
        """Side walls plus a back wall behind the BS."""
        length = self.link_distance_m + 2.0
        half_width = self.corridor_half_width_m
        wall_thickness = 0.2
        wall_height = 3.0
        left = AxisAlignedBox(
            minimum=[-1.0, -half_width - wall_thickness, 0.0],
            maximum=[length, -half_width, wall_height],
        )
        right = AxisAlignedBox(
            minimum=[-1.0, half_width, 0.0],
            maximum=[length, half_width + wall_thickness, wall_height],
        )
        back = AxisAlignedBox(
            minimum=[length, -half_width - wall_thickness, 0.0],
            maximum=[length + wall_thickness, half_width + wall_thickness, wall_height],
        )
        return [left, right, back]

    # -- geometry ----------------------------------------------------------------
    def _bodies(self, times_s: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Body boxes of all active pedestrians at each time.

        Returns ``(frame_ids, minimum, maximum)`` with one row per (time,
        active body), ordered by time and then by pedestrian order.
        """
        parts = [pedestrian.bodies_at(times_s) for pedestrian in self.pedestrians]
        if not parts:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3))
        frame_ids, minimum, maximum = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(frame_ids, kind="stable")
        return frame_ids[order].astype(np.int64), minimum[order], maximum[order]

    def _blocker_arrays(
        self, num_frames: int, frame_ids: np.ndarray, minimum: np.ndarray, maximum: np.ndarray
    ) -> BlockerArrays:
        """Link-relative geometry of body boxes, all rows at once."""
        center = (minimum + maximum) / 2.0
        fraction, clearance = project_points_onto_segment(
            center, self.ue_position, self.bs_position
        )
        distance_from_tx = fraction * self.link_distance_m
        return BlockerArrays(
            num_frames=num_frames,
            frame=frame_ids,
            blocking=segment_box_hits(self.ue_position, self.bs_position, minimum, maximum),
            clearance_m=clearance,
            distance_from_tx_m=distance_from_tx,
            distance_from_rx_m=self.link_distance_m - distance_from_tx,
            body_width_m=maximum[:, 1] - minimum[:, 1],
        )

    # -- frame generation ----------------------------------------------------------
    def simulate(self, count: int, start_index: int = 0) -> FrameBatch:
        """Simulate ``count`` consecutive frames from ``start_index`` in one pass.

        Frame ``i`` is at time ``i * frame_interval_s``.  Every pedestrian is
        evaluated at all frame times at once, the walls are ray-cast once, and
        the depth images are written straight into the batch's array.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if start_index < 0:
            raise ValueError("frame index must be non-negative")
        times = np.arange(start_index, start_index + count) * self.frame_interval_s
        frame_ids, minimum, maximum = self._bodies(times)
        images = self.camera.render_frames(
            count, frame_ids, minimum, maximum, static_boxes=self.static_boxes
        )
        # Scale to [0, 1] in place: 0 is the minimum range, 1 the maximum.
        intr = self.camera.intrinsics
        np.subtract(images, intr.min_range_m, out=images)
        np.divide(images, intr.max_range_m - intr.min_range_m, out=images)
        return FrameBatch(
            start_index=start_index,
            times_s=times,
            depth_images=images,
            blockers=self._blocker_arrays(count, frame_ids, minimum, maximum),
        )

    def frames(self, count: int, start_index: int = 0) -> Iterator[SceneFrame]:
        """Yield ``count`` consecutive frames starting at ``start_index``.

        The whole run is simulated as one :meth:`simulate` batch when
        iteration starts; the frames are views into it.
        """
        yield from self.simulate(count, start_index)
