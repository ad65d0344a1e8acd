"""Tests for the geometry primitives."""
import numpy as np
import pytest

from repro.scene import AxisAlignedBox, Pose
from repro.scene.geometry import (
    project_points_onto_segment,
    ray_box_distances,
    segment_box_hits,
)

#: Corners of the unit cube as the ``(1, 3)`` rows the batched kernels take.
LOW = np.zeros((1, 3))
HIGH = np.ones((1, 3))


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


def test_ray_hits_box_head_on():
    distances = ray_box_distances([[-1.0, 0.5, 0.5]], [[1.0, 0.0, 0.0]], LOW, HIGH)
    assert distances.shape == (1, 1)
    assert distances[0, 0] == pytest.approx(1.0)


def test_ray_misses_box():
    # Crosses the x slab but moves away from the y slab it starts outside.
    distances = ray_box_distances([[-1.0, 2.0, 0.5]], [[1.0, 1.0, 0.0]], LOW, HIGH)
    assert np.isinf(distances[0, 0])


def test_ray_parallel_outside_slab_misses():
    # Ray travels along x at y=2: parallel to the y slabs and outside them.
    distances = ray_box_distances([[-1.0, 2.0, 0.5]], [[1.0, 0.0, 0.0]], LOW, HIGH)
    assert np.isinf(distances[0, 0])


def test_ray_starting_inside_box_returns_zero():
    distances = ray_box_distances([[0.5, 0.5, 0.5]], [[1.0, 0.0, 0.0]], LOW, HIGH)
    assert distances[0, 0] == 0.0


def test_ray_pointing_away_misses():
    distances = ray_box_distances([[-1.0, 0.5, 0.5]], [[-1.0, 0.0, 0.0]], LOW, HIGH)
    assert np.isinf(distances[0, 0])


def test_ray_vectorized_batch():
    origins = np.array([[-1.0, 0.5, 0.5], [-1.0, 5.0, 0.5]])
    directions = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    distances = ray_box_distances(origins, directions, LOW, HIGH)
    assert distances.shape == (1, 2)
    assert np.isfinite(distances[0, 0]) and np.isinf(distances[0, 1])


def test_ray_unnormalized_direction_scales_distance():
    distances = ray_box_distances([[-1.0, 0.5, 0.5]], [[2.0, 0.0, 0.0]], LOW, HIGH)
    assert distances[0, 0] == pytest.approx(0.5)


def test_segment_intersects_box():
    assert segment_box_hits([-1, 0.5, 0.5], [2, 0.5, 0.5], LOW, HIGH).tolist() == [True]
    assert segment_box_hits([-1, 2.0, 0.5], [2, 2.0, 0.5], LOW, HIGH).tolist() == [False]
    # Segment stopping short of the box.
    assert segment_box_hits([-2, 0.5, 0.5], [-1, 0.5, 0.5], LOW, HIGH).tolist() == [False]


def test_segment_degenerate_point():
    # A zero-length segment hits exactly the boxes containing its point.
    assert segment_box_hits([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], LOW, HIGH).tolist() == [True]
    assert segment_box_hits([2, 2, 2], [2, 2, 2], LOW, HIGH).tolist() == [False]


def test_point_segment_distance():
    _, distances = project_points_onto_segment(
        [[0, 1, 0], [5, 0, 0]], [-1, 0, 0], [1, 0, 0]
    )
    assert distances.tolist() == pytest.approx([1.0, 4.0])
    # Zero-length segment: the distance to its one point.
    fractions, distances = project_points_onto_segment([[0, 3, 4]], [0, 0, 0], [0, 0, 0])
    assert fractions.tolist() == [0.0]
    assert distances.tolist() == pytest.approx([5.0])


def test_project_point_onto_segment():
    fractions, distances = project_points_onto_segment(
        [[0.25, 3.0, 0.0], [5, 0, 0]], [0, 0, 0], [1, 0, 0]
    )
    assert fractions.tolist() == pytest.approx([0.25, 1.0])  # clipped to the end
    assert distances.tolist() == pytest.approx([3.0, 4.0])


def test_pose_orthonormal_frame():
    pose = Pose(position=[0, 0, 1], forward=[1, 0, 0])
    assert np.allclose(pose.right, [0, -1, 0]) or np.allclose(pose.right, [0, 1, 0])
    assert abs(np.dot(pose.right, pose.forward)) < 1e-12
    assert abs(np.dot(pose.true_up, pose.forward)) < 1e-12


def test_pose_rejects_collinear_up():
    with pytest.raises(ValueError):
        Pose(position=[0, 0, 0], forward=[0, 0, 1])
