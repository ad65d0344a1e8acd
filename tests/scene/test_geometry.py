"""Tests for the geometry primitives."""
import numpy as np
import pytest

from repro.scene import (
    AxisAlignedBox,
    Pose,
    point_segment_distance,
    project_point_onto_segment,
    ray_box_intersection,
    segment_intersects_box,
)


@pytest.fixture()
def unit_box():
    return AxisAlignedBox(minimum=[0, 0, 0], maximum=[1, 1, 1])


def test_box_from_center():
    box = AxisAlignedBox.from_center([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert np.allclose(box.minimum, [0.0, 0.0, 0.0])
    assert np.allclose(box.maximum, [2.0, 4.0, 6.0])
    assert np.allclose(box.center, [1.0, 2.0, 3.0])
    assert np.allclose(box.size, [2.0, 4.0, 6.0])


def test_box_validation():
    with pytest.raises(ValueError):
        AxisAlignedBox(minimum=[1, 0, 0], maximum=[0, 1, 1])
    with pytest.raises(ValueError):
        AxisAlignedBox.from_center([0, 0, 0], [-1, 1, 1])


def test_box_contains(unit_box):
    assert unit_box.contains([0.5, 0.5, 0.5])
    assert unit_box.contains([0.0, 0.0, 0.0])
    assert not unit_box.contains([1.5, 0.5, 0.5])


def test_ray_hits_box_head_on(unit_box):
    distance = ray_box_intersection([-1.0, 0.5, 0.5], [1.0, 0.0, 0.0], unit_box)
    assert distance[0] == pytest.approx(1.0)


def test_ray_misses_box(unit_box):
    distance = ray_box_intersection([-1.0, 2.0, 0.5], [1.0, 0.0, 0.0], unit_box)
    assert np.isinf(distance[0])


def test_ray_parallel_outside_slab_misses(unit_box):
    # Ray travels along x at y=2: parallel to the y slabs and outside them.
    distance = ray_box_intersection([-1.0, 2.0, 0.5], [1.0, 0.0, 0.0], unit_box)
    assert np.isinf(distance[0])


def test_ray_starting_inside_box_returns_zero(unit_box):
    distance = ray_box_intersection([0.5, 0.5, 0.5], [1.0, 0.0, 0.0], unit_box)
    assert distance[0] == pytest.approx(0.0)


def test_ray_pointing_away_misses(unit_box):
    distance = ray_box_intersection([-1.0, 0.5, 0.5], [-1.0, 0.0, 0.0], unit_box)
    assert np.isinf(distance[0])


def test_ray_vectorized_batch(unit_box):
    origins = np.array([[-1.0, 0.5, 0.5], [-1.0, 5.0, 0.5]])
    directions = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    distances = ray_box_intersection(origins, directions, unit_box)
    assert distances.shape == (2,)
    assert np.isfinite(distances[0]) and np.isinf(distances[1])


def test_ray_unnormalized_direction_scales_distance(unit_box):
    distance = ray_box_intersection([-1.0, 0.5, 0.5], [2.0, 0.0, 0.0], unit_box)
    assert distance[0] == pytest.approx(0.5)


def test_segment_intersects_box(unit_box):
    assert segment_intersects_box([-1, 0.5, 0.5], [2, 0.5, 0.5], unit_box)
    assert not segment_intersects_box([-1, 2.0, 0.5], [2, 2.0, 0.5], unit_box)
    # Segment stopping short of the box.
    assert not segment_intersects_box([-2, 0.5, 0.5], [-1, 0.5, 0.5], unit_box)


def test_segment_degenerate_point(unit_box):
    assert segment_intersects_box([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], unit_box)
    assert not segment_intersects_box([2, 2, 2], [2, 2, 2], unit_box)


def test_point_segment_distance():
    assert point_segment_distance([0, 1, 0], [-1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)
    assert point_segment_distance([5, 0, 0], [-1, 0, 0], [1, 0, 0]) == pytest.approx(4.0)
    assert point_segment_distance([0, 0, 0], [0, 0, 0], [0, 0, 0]) == pytest.approx(0.0)


def test_project_point_onto_segment():
    fraction, closest = project_point_onto_segment([0.25, 3.0, 0.0], [0, 0, 0], [1, 0, 0])
    assert fraction == pytest.approx(0.25)
    assert np.allclose(closest, [0.25, 0, 0])
    fraction, _ = project_point_onto_segment([5, 0, 0], [0, 0, 0], [1, 0, 0])
    assert fraction == pytest.approx(1.0)


def test_pose_orthonormal_frame():
    pose = Pose(position=[0, 0, 1], forward=[1, 0, 0])
    assert np.allclose(pose.right, [0, -1, 0]) or np.allclose(pose.right, [0, 1, 0])
    assert abs(np.dot(pose.right, pose.forward)) < 1e-12
    assert abs(np.dot(pose.true_up, pose.forward)) < 1e-12


def test_pose_rejects_collinear_up():
    with pytest.raises(ValueError):
        Pose(position=[0, 0, 0], forward=[0, 0, 1])
