"""Property-based tests for the geometry and camera invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scene import (
    AxisAlignedBox,
    DepthCamera,
    DepthCameraIntrinsics,
    Pose,
)
from repro.scene.geometry import (
    project_points_onto_segment,
    ray_box_distances,
    segment_box_hits,
)

COORD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
SIZE = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


@st.composite
def boxes(draw):
    center = [draw(COORD), draw(COORD), draw(COORD)]
    size = [draw(SIZE), draw(SIZE), draw(SIZE)]
    return AxisAlignedBox.from_center(center, size)


@given(boxes())
@settings(max_examples=50, deadline=None)
def test_box_contains_its_center_and_corners(box):
    assert box.contains(box.center)
    assert box.contains(box.minimum)
    assert box.contains(box.maximum)


@given(boxes(), st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=50, deadline=None)
def test_translation_preserves_size(box, dx, dy):
    moved = AxisAlignedBox.from_center(box.center + np.array([dx, dy, 0.0]), box.size)
    assert np.allclose(moved.size, box.size)
    assert np.allclose(moved.center, box.center + np.array([dx, dy, 0.0]))


@given(boxes())
@settings(max_examples=50, deadline=None)
def test_ray_from_center_always_hits(box):
    # A ray starting inside the box reports distance 0.
    distances = ray_box_distances(
        box.center[None, :], [[1.0, 0.0, 0.0]], box.minimum[None, :], box.maximum[None, :]
    )
    assert distances[0, 0] == 0.0


@given(boxes())
@settings(max_examples=50, deadline=None)
def test_segment_through_center_intersects(box):
    start = box.center - np.array([100.0, 0.0, 0.0])
    end = box.center + np.array([100.0, 0.0, 0.0])
    hits = segment_box_hits(start, end, box.minimum[None, :], box.maximum[None, :])
    assert hits.tolist() == [True]


@given(
    st.lists(COORD, min_size=3, max_size=3),
    st.lists(COORD, min_size=3, max_size=3),
    st.lists(COORD, min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_point_segment_distance_nonnegative_and_bounded(point, start, end):
    _, distances = project_points_onto_segment([point], start, end)
    distance = float(distances[0])
    assert distance >= 0.0
    to_start = float(np.linalg.norm(np.array(point) - np.array(start)))
    to_end = float(np.linalg.norm(np.array(point) - np.array(end)))
    assert distance <= min(to_start, to_end) + 1e-9


@given(st.floats(min_value=1.0, max_value=7.0), st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_rendered_depth_within_sensor_range(distance, lateral):
    intrinsics = DepthCameraIntrinsics(width=9, height=9, min_range_m=0.5, max_range_m=8.0)
    camera = DepthCamera(Pose(position=[0, 0, 1], forward=[1, 0, 0]), intrinsics)
    box = AxisAlignedBox.from_center([distance, lateral, 1.0], [0.3, 0.5, 1.7])
    image = camera.render([box])
    assert image.shape == (9, 9)
    assert np.all(image >= intrinsics.min_range_m - 1e-12)
    assert np.all(image <= intrinsics.max_range_m + 1e-12)


@given(st.floats(min_value=1.5, max_value=6.0))
@settings(max_examples=30, deadline=None)
def test_closer_objects_produce_smaller_center_depth(distance):
    intrinsics = DepthCameraIntrinsics(width=11, height=11)
    camera = DepthCamera(Pose(position=[0, 0, 1], forward=[1, 0, 0]), intrinsics)
    near = AxisAlignedBox.from_center([distance, 0.0, 1.0], [0.2, 1.0, 1.0])
    far = AxisAlignedBox.from_center([distance + 1.5, 0.0, 1.0], [0.2, 1.0, 1.0])
    near_depth = camera.render([near])[5, 5]
    far_depth = camera.render([far])[5, 5]
    assert near_depth < far_depth
