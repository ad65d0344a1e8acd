"""Tests for the corridor scene."""
import numpy as np
import pytest

from repro.scene import (
    CorridorScene,
    CrossingPedestrian,
    DepthCameraIntrinsics,
    LoiteringPedestrian,
)


def make_scene(pedestrians=None, **kwargs):
    defaults = dict(
        link_distance_m=4.0,
        camera_intrinsics=DepthCameraIntrinsics(width=16, height=16),
        frame_interval_s=0.033,
    )
    defaults.update(kwargs)
    return CorridorScene(pedestrians=pedestrians or [], **defaults)


def test_scene_geometry_defaults():
    scene = make_scene()
    assert np.allclose(scene.ue_position, [0.0, 0.0, 1.0])
    assert np.allclose(scene.bs_position, [4.0, 0.0, 1.0])
    assert len(scene.static_boxes) == 3  # two side walls + back wall


def test_scene_without_walls():
    scene = make_scene(include_walls=False)
    assert scene.static_boxes == []
    frame = scene.simulate(1)[0]
    assert np.allclose(frame.depth_image, 1.0)  # nothing but background


def test_scene_validation():
    with pytest.raises(ValueError):
        make_scene(link_distance_m=0.0)
    with pytest.raises(ValueError):
        make_scene(frame_interval_s=-1.0)
    with pytest.raises(ValueError):
        make_scene(antenna_height_m=0.0)


def test_blocking_pedestrian_detected():
    blocker = LoiteringPedestrian(position=[2.0, 0.0, 0.0])
    frame = make_scene(pedestrians=[blocker]).simulate(1)[0]
    assert frame.line_of_sight_blocked
    [geometry] = frame.blockers
    assert geometry.blocking
    assert geometry.clearance_m == pytest.approx(0.125, abs=0.2)
    assert geometry.distance_from_tx_m == pytest.approx(2.0, abs=0.1)


def test_non_blocking_pedestrian():
    bystander = LoiteringPedestrian(position=[2.0, 1.8, 0.0])
    frame = make_scene(pedestrians=[bystander]).simulate(1)[0]
    assert not frame.line_of_sight_blocked
    [geometry] = frame.blockers
    assert not geometry.blocking
    assert geometry.clearance_m > 1.0


def test_crossing_pedestrian_blocks_only_during_crossing():
    pedestrian = CrossingPedestrian(
        crossing_x=2.0, start_time_s=0.0, speed_mps=1.0, start_y=-2.0, end_y=2.0
    )
    # Frames 0.1 s apart: frame 20 is at t = 2.0 s, when the body center
    # crosses the link line (y = 0).
    blocked = make_scene(pedestrians=[pedestrian], frame_interval_s=0.1).simulate(40)
    assert not blocked.line_of_sight_blocked[5]  # still 1.5 m away laterally
    assert blocked.line_of_sight_blocked[20]
    assert not blocked.line_of_sight_blocked[39]


def test_frame_rendering_shows_pedestrian():
    blocker = LoiteringPedestrian(position=[2.0, 0.0, 0.0])
    empty_scene = make_scene()
    blocked_scene = make_scene(pedestrians=[blocker])
    empty_frame = empty_scene.simulate(1)[0]
    blocked_frame = blocked_scene.simulate(1)[0]
    # The pedestrian is closer than any wall, so the minimum depth drops.
    assert blocked_frame.depth_image.min() < empty_frame.depth_image.min()
    assert blocked_frame.line_of_sight_blocked
    assert not empty_frame.line_of_sight_blocked


def test_frames_iterator_counts_and_times():
    scene = make_scene()
    frames = list(scene.frames(5, start_index=2))
    assert len(frames) == 5
    assert frames[0].index == 2
    assert frames[0].time_s == pytest.approx(2 * 0.033)
    assert frames[-1].index == 6


def test_frame_at_negative_index_raises():
    with pytest.raises(ValueError):
        make_scene().simulate(1, -1)


def test_blocker_geometry_distances_sum_to_link_distance():
    blocker = LoiteringPedestrian(position=[1.0, 0.0, 0.0])
    scene = make_scene(pedestrians=[blocker])
    [geometry] = scene.simulate(1)[0].blockers
    total = geometry.distance_from_tx_m + geometry.distance_from_rx_m
    assert total == pytest.approx(scene.link_distance_m)
