"""Per-frame scene simulation: the reference the batched scene path must match.

This is the frame-by-frame, body-by-body loop the library used before it
simulated a run of frames in one batched pass, kept verbatim (scalar slab
test per box, ``state_at`` per pedestrian and time, one ``BlockerGeometry``
and one scalar attenuation per body).  The batched path in ``repro.scene``
and ``repro.mmwave`` must reproduce its depth images, blocker geometry, LoS
flags and power traces bit for bit; ``tests/scene/test_batched_scene.py``
checks that and ``benchmarks/test_bench_scene.py`` times the two.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.mmwave.blockage import (
    KnifeEdgeBlockageModel,
    PiecewiseLinearBlockageModel,
    fresnel_parameter,
    knife_edge_loss_db,
)
from repro.mmwave.power import ReceivedPowerModel
from repro.scene.actors import CrossingPedestrian, LoiteringPedestrian, Pedestrian
from repro.scene.camera import DepthCamera
from repro.scene.environment import BlockerGeometry, CorridorScene, SceneFrame
from repro.scene.geometry import AxisAlignedBox, as_point


# -- geometry ------------------------------------------------------------------
def ray_box_intersection(origins, directions, box: AxisAlignedBox) -> np.ndarray:
    """Slab method, vectorized over rays, one box."""
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if origins.shape[1] != 3 or directions.shape[1] != 3:
        raise ValueError("origins and directions must have 3 components")
    if origins.shape[0] == 1 and directions.shape[0] > 1:
        origins = np.broadcast_to(origins, directions.shape)

    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = 1.0 / directions
        t_low = (box.minimum - origins) * inverse
        t_high = (box.maximum - origins) * inverse
    parallel = directions == 0.0
    inside = (origins >= box.minimum) & (origins <= box.maximum)
    t_low = np.where(parallel, np.where(inside, -np.inf, np.inf), t_low)
    t_high = np.where(parallel, np.where(inside, np.inf, np.inf), t_high)

    t_near = np.minimum(t_low, t_high).max(axis=1)
    t_far = np.maximum(t_low, t_high).min(axis=1)

    hit = (t_far >= t_near) & (t_far >= 0.0)
    distances = np.where(t_near >= 0.0, t_near, 0.0)
    return np.where(hit, distances, np.inf)


def segment_intersects_box(start, end, box: AxisAlignedBox) -> bool:
    start = as_point(start)
    end = as_point(end)
    direction = end - start
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        return box.contains(start)
    distance = ray_box_intersection(start[None, :], direction[None, :], box)[0]
    return bool(distance <= 1.0)


def point_segment_distance(point, start, end) -> float:
    point = as_point(point)
    start = as_point(start)
    end = as_point(end)
    direction = end - start
    squared_length = float(direction @ direction)
    if squared_length == 0.0:
        return float(np.linalg.norm(point - start))
    projection = float((point - start) @ direction) / squared_length
    projection = min(1.0, max(0.0, projection))
    closest = start + projection * direction
    return float(np.linalg.norm(point - closest))


def project_point_onto_segment(point, start, end):
    point = as_point(point)
    start = as_point(start)
    end = as_point(end)
    direction = end - start
    squared_length = float(direction @ direction)
    if squared_length == 0.0:
        return 0.0, start.copy()
    fraction = float((point - start) @ direction) / squared_length
    fraction = min(1.0, max(0.0, fraction))
    return fraction, start + fraction * direction


# -- pedestrians -----------------------------------------------------------------
def state_at(pedestrian: Pedestrian, time_s: float):
    """``(position, active)`` of a built-in pedestrian at ``time_s``."""
    if isinstance(pedestrian, CrossingPedestrian):
        direction = np.sign(pedestrian.end_y - pedestrian.start_y)
        if time_s < pedestrian.start_time_s or time_s > pedestrian.end_time_s:
            position = np.array([pedestrian.crossing_x, pedestrian.start_y, 0.0])
            return position, False
        elapsed = time_s - pedestrian.start_time_s
        y = pedestrian.start_y + direction * pedestrian.speed_mps * elapsed
        return np.array([pedestrian.crossing_x, y, 0.0]), True
    if isinstance(pedestrian, LoiteringPedestrian):
        active = pedestrian.start_time_s <= time_s <= pedestrian.end_time_s
        sway = pedestrian.sway_amplitude_m * np.sin(
            2.0 * np.pi * (time_s - pedestrian.start_time_s) / pedestrian.sway_period_s
        )
        position = pedestrian.base_position + np.array([0.0, sway, 0.0])
        return position, active
    state = pedestrian.state_at(time_s)
    return state.position, state.active


def body_at(pedestrian: Pedestrian, time_s: float) -> Optional[AxisAlignedBox]:
    position, active = state_at(pedestrian, time_s)
    if not active:
        return None
    center = position + np.array([0.0, 0.0, pedestrian.body_size[2] / 2.0])
    return AxisAlignedBox.from_center(center, pedestrian.body_size)


# -- camera ----------------------------------------------------------------------
def render(camera: DepthCamera, boxes) -> np.ndarray:
    intr = camera.intrinsics
    directions = camera._directions
    depths = np.full(directions.shape[0], np.inf)
    origins = np.broadcast_to(camera.pose.position, directions.shape)
    for box in boxes:
        if box is None:
            continue
        hit = ray_box_intersection(origins, directions, box)
        depths = np.minimum(depths, hit)
    depths = np.where(np.isinf(depths), camera.background_depth_m, depths)
    depths = np.clip(depths, intr.min_range_m, intr.max_range_m)
    return depths.reshape(intr.height, intr.width)


def render_normalized(camera: DepthCamera, boxes) -> np.ndarray:
    intr = camera.intrinsics
    depth = render(camera, boxes)
    return (depth - intr.min_range_m) / (intr.max_range_m - intr.min_range_m)


# -- scene -----------------------------------------------------------------------
def active_bodies(scene: CorridorScene, time_s: float) -> List[AxisAlignedBox]:
    bodies = []
    for pedestrian in scene.pedestrians:
        body = body_at(pedestrian, time_s)
        if body is not None:
            bodies.append(body)
    return bodies


def blocker_geometry(scene: CorridorScene, body: AxisAlignedBox) -> BlockerGeometry:
    blocking = segment_intersects_box(scene.ue_position, scene.bs_position, body)
    center = body.center
    clearance = point_segment_distance(center, scene.ue_position, scene.bs_position)
    fraction, _ = project_point_onto_segment(
        center, scene.ue_position, scene.bs_position
    )
    distance_from_tx = fraction * scene.link_distance_m
    body_width = float(body.size[1])
    return BlockerGeometry(
        blocking=blocking,
        clearance_m=clearance,
        distance_from_tx_m=distance_from_tx,
        distance_from_rx_m=scene.link_distance_m - distance_from_tx,
        body_width_m=body_width,
    )


def line_of_sight_blocked(scene: CorridorScene, time_s: float) -> bool:
    return any(
        segment_intersects_box(scene.ue_position, scene.bs_position, body)
        for body in active_bodies(scene, time_s)
    )


def frame_at(scene: CorridorScene, index: int) -> SceneFrame:
    if index < 0:
        raise ValueError("frame index must be non-negative")
    time_s = index * scene.frame_interval_s
    bodies = active_bodies(scene, time_s)
    depth = render_normalized(scene.camera, scene.static_boxes + bodies)
    blockers = [blocker_geometry(scene, body) for body in bodies]
    return SceneFrame(index=index, time_s=time_s, depth_image=depth, blockers=blockers)


def frames(scene: CorridorScene, count: int, start_index: int = 0) -> List[SceneFrame]:
    if count < 0:
        raise ValueError("count must be non-negative")
    return [frame_at(scene, start_index + offset) for offset in range(count)]


# -- blockage and power ------------------------------------------------------------
def single_body_attenuation_db(model, blocker: BlockerGeometry) -> float:
    if isinstance(model, PiecewiseLinearBlockageModel):
        clearance = blocker.clearance_m
        if clearance <= model.inner_clearance_m:
            return model.max_attenuation_db
        if clearance >= model.outer_clearance_m:
            return 0.0
        fraction = (model.outer_clearance_m - clearance) / (
            model.outer_clearance_m - model.inner_clearance_m
        )
        return float(model.max_attenuation_db * fraction)
    assert isinstance(model, KnifeEdgeBlockageModel)
    d1 = max(blocker.distance_from_tx_m, 1e-3)
    d2 = max(blocker.distance_from_rx_m, 1e-3)
    half_width = blocker.body_width_m / 2.0
    near_edge = half_width - blocker.clearance_m
    far_edge = half_width + blocker.clearance_m
    v_near = fresnel_parameter(near_edge, d1, d2, model.frequency_hz)
    v_far = fresnel_parameter(far_edge, d1, d2, model.frequency_hz)
    if blocker.clearance_m > half_width:
        loss = knife_edge_loss_db(v_near)
    else:
        amplitude_near = 10.0 ** (-knife_edge_loss_db(v_near) / 20.0)
        amplitude_far = 10.0 ** (-knife_edge_loss_db(v_far) / 20.0)
        combined = max(amplitude_near + amplitude_far, 1e-12)
        loss = -20.0 * np.log10(min(combined, 1.0))
    return float(min(max(loss, 0.0), model.max_attenuation_db))


def attenuation_db(model, blockers: Sequence[BlockerGeometry]) -> float:
    if not isinstance(model, (KnifeEdgeBlockageModel, PiecewiseLinearBlockageModel)):
        return model.attenuation_db(blockers)
    if not blockers:
        return 0.0
    total = sum(single_body_attenuation_db(model, b) for b in blockers)
    return float(min(total, 1.5 * model.max_attenuation_db))


def mean_power_dbm(model: ReceivedPowerModel, distance_m: float, blockers) -> float:
    line_of_sight = float(model.link_budget.line_of_sight_power_dbm(distance_m))
    attenuation = attenuation_db(model.blockage_model, list(blockers))
    return max(line_of_sight - attenuation, model.floor_dbm)


def power_trace_dbm(
    model: ReceivedPowerModel, scene: CorridorScene, frames: Sequence[SceneFrame]
) -> np.ndarray:
    count = len(frames)
    mean_power = np.array(
        [mean_power_dbm(model, scene.link_distance_m, frame.blockers) for frame in frames]
    )
    total = mean_power
    if model.fading is not None:
        total = total + model.fading.sample_gains_db(count)
    if model.noise is not None:
        total = total + model.noise.sample_db(count)
    return np.maximum(total, model.floor_dbm)


# -- dataset -----------------------------------------------------------------------
def generate(generator):
    """``(images, powers_dbm, line_of_sight_blocked)`` of a dataset generator."""
    scene = generator.build_scene()
    frame_list = frames(scene, generator.config.num_samples)
    images = np.stack([frame.depth_image for frame in frame_list])
    powers = power_trace_dbm(generator.power_model, scene, frame_list)
    blocked = np.array([frame.line_of_sight_blocked for frame in frame_list])
    return images, powers, blocked
