"""Pinhole depth-camera model (Microsoft Kinect substitute).

The original dataset pairs each received-power sample with a depth frame from
a Kinect co-located with the mmWave transmitter.  ``DepthCamera`` reproduces
the relevant behaviour: it renders a depth image (metres per pixel, clipped to
the sensor range) of the axis-aligned boxes present in the scene by casting
one ray per pixel.

:meth:`DepthCamera.render_frames` renders a whole run of frames in one pass:
static boxes are ray-cast once, one slab test covers every (frame, box) pair
in bounded chunks, and each frame's boxes are combined in their given order,
so every frame is bitwise the image a one-frame render would give.
:meth:`DepthCamera.render` is its one-frame view.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.scene.geometry import (
    AxisAlignedBox,
    Pose,
    ray_box_distances,
    reduce_by_frame,
)

#: Largest number of (box, ray) pairs one slab-test chunk of
#: :meth:`DepthCamera.render_frames` covers.  Its ``(boxes, rays)``
#: temporaries then stay near 256 kB each and the chunk works in cache;
#: 16k-64k pairs ran equally fast on a 2-vCPU x86 VM, larger chunks slower.
CHUNK_HITS = 1 << 15


@dataclass(frozen=True)
class DepthCameraIntrinsics:
    """Intrinsic parameters of the depth camera.

    Attributes:
        width / height: image resolution in pixels.
        horizontal_fov_deg: horizontal field of view in degrees.
        min_range_m / max_range_m: sensor range; depths outside are clipped.
            The Kinect v1 depth sensor operates roughly between 0.5 m and 8 m.
    """

    width: int = 40
    height: int = 40
    horizontal_fov_deg: float = 57.0
    min_range_m: float = 0.5
    max_range_m: float = 8.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not 0.0 < self.horizontal_fov_deg < 180.0:
            raise ValueError("horizontal_fov_deg must be in (0, 180)")
        if not 0.0 <= self.min_range_m < self.max_range_m:
            raise ValueError("require 0 <= min_range_m < max_range_m")

    @property
    def vertical_fov_deg(self) -> float:
        """Vertical field of view derived from the aspect ratio."""
        half_horizontal = np.radians(self.horizontal_fov_deg) / 2.0
        half_vertical = np.arctan(np.tan(half_horizontal) * self.height / self.width)
        return float(np.degrees(2.0 * half_vertical))

    def with_resolution(self, width: int, height: int) -> "DepthCameraIntrinsics":
        """Copy with a different pixel resolution, keeping the optics."""
        from dataclasses import replace

        return replace(self, width=int(width), height=int(height))


class DepthCamera:
    """A pinhole depth camera rendering axis-aligned boxes.

    Args:
        pose: camera position and orientation in the scene frame.
        intrinsics: resolution, field of view and range of the sensor.
        background_depth_m: depth value assigned to pixels whose ray hits
            nothing (defaults to the maximum range, like a saturated Kinect
            return).
    """

    def __init__(
        self,
        pose: Pose,
        intrinsics: DepthCameraIntrinsics | None = None,
        background_depth_m: float | None = None,
    ):
        self.pose = pose
        self.intrinsics = intrinsics or DepthCameraIntrinsics()
        self.background_depth_m = (
            self.intrinsics.max_range_m
            if background_depth_m is None
            else float(background_depth_m)
        )
        if self.background_depth_m <= 0:
            raise ValueError("background_depth_m must be positive")
        self._directions = self._pixel_ray_directions()

    def _pixel_ray_directions(self) -> np.ndarray:
        """Pre-compute the (height*width, 3) unit ray directions per pixel."""
        intr = self.intrinsics
        half_h_fov = np.radians(intr.horizontal_fov_deg) / 2.0
        half_v_fov = np.radians(intr.vertical_fov_deg) / 2.0
        # Pixel centers mapped onto the image plane at unit distance.
        xs = np.tan(half_h_fov) * (
            (np.arange(intr.width) + 0.5) / intr.width * 2.0 - 1.0
        )
        ys = np.tan(half_v_fov) * (
            1.0 - (np.arange(intr.height) + 0.5) / intr.height * 2.0
        )
        grid_x, grid_y = np.meshgrid(xs, ys)
        directions = (
            self.pose.forward[None, None, :]
            + grid_x[:, :, None] * self.pose.right[None, None, :]
            + grid_y[:, :, None] * self.pose.true_up[None, None, :]
        )
        directions = directions.reshape(-1, 3)
        return directions / np.linalg.norm(directions, axis=1, keepdims=True)

    def render_frames(
        self,
        count: int,
        frame_ids,
        minimum,
        maximum,
        static_boxes: Sequence[AxisAlignedBox] = (),
    ) -> np.ndarray:
        """Render ``count`` depth frames in one batched pass.

        Box ``k`` (corners ``minimum[k]`` and ``maximum[k]``) is drawn in
        frame ``frame_ids[k]``; ``frame_ids`` must be nondecreasing, and
        within a frame the boxes keep their row order.  ``static_boxes`` are
        drawn in every frame, before the frame's own boxes; they are
        ray-cast once for the whole run.  Each pixel is the nearest hit,
        combined box by box in that order, so a frame is bitwise the image a
        one-frame render of the same boxes gives.

        The slab test runs over chunks of at most :data:`CHUNK_HITS`
        (box, ray) pairs, and each finished chunk is written straight into
        the output array.

        Returns:
            Array of shape ``(count, height, width)``: per-pixel depth in
            metres, clipped to the sensor range; pixels with
            no hit carry the background depth.
        """
        intr = self.intrinsics
        rays = self._directions.shape[0]
        frame_ids = np.asarray(frame_ids, dtype=np.int64)
        minimum = np.asarray(minimum, dtype=np.float64).reshape(-1, 3)
        maximum = np.asarray(maximum, dtype=np.float64).reshape(-1, 3)
        out = np.empty((count, intr.height, intr.width))
        pixels = out.reshape(count, rays)

        base = np.full(rays, np.inf)
        if static_boxes:
            base = ray_box_distances(
                self.pose.position,
                self._directions,
                [box.minimum for box in static_boxes],
                [box.maximum for box in static_boxes],
            ).min(axis=0)

        # First box row of every frame, and the largest chunk of frames and
        # boxes whose temporaries stay within the budget.
        starts = np.searchsorted(frame_ids, np.arange(count + 1))
        chunk = max(1, CHUNK_HITS // rays)
        first = 0
        while first < count:
            by_boxes = int(np.searchsorted(starts, starts[first] + chunk, side="right")) - 1
            stop = max(first + 1, min(count, first + chunk, by_boxes))
            low, high = starts[first], starts[stop]
            depths = np.repeat(base[None, :], stop - first, axis=0)
            hits = ray_box_distances(
                self.pose.position, self._directions, minimum[low:high], maximum[low:high]
            )
            reduce_by_frame(np.minimum, depths, frame_ids[low:high] - first, hits)
            depths = np.where(np.isinf(depths), self.background_depth_m, depths)
            pixels[first:stop] = np.clip(depths, intr.min_range_m, intr.max_range_m)
            first = stop
        return out

    def render(self, boxes: Iterable[AxisAlignedBox]) -> np.ndarray:
        """Render a depth image of ``boxes`` (one-frame view of :meth:`render_frames`).

        Returns:
            Array of shape ``(height, width)`` with per-pixel depth in metres,
            clipped to the sensor range; pixels with no hit carry the
            background depth.  ``None`` entries are skipped.
        """
        boxes = [box for box in boxes if box is not None]
        return self.render_frames(
            1,
            np.zeros(len(boxes), dtype=np.int64),
            [box.minimum for box in boxes],
            [box.maximum for box in boxes],
        )[0]


def default_ue_camera(
    ue_position: Sequence[float],
    bs_position: Sequence[float],
    intrinsics: DepthCameraIntrinsics | None = None,
) -> DepthCamera:
    """Camera co-located with the UE, looking towards the BS.

    This mirrors the measurement setup of the paper where the depth camera
    observes the uplink channel from the transmitter side.
    """
    ue_position = np.asarray(ue_position, dtype=np.float64)
    bs_position = np.asarray(bs_position, dtype=np.float64)
    forward = bs_position - ue_position
    if np.allclose(forward, 0.0):
        raise ValueError("UE and BS positions coincide")
    pose = Pose(position=ue_position, forward=forward)
    return DepthCamera(pose=pose, intrinsics=intrinsics)
