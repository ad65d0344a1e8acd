"""The batched scene pass is bitwise the per-frame, per-body loop.

``CorridorScene.simulate`` evaluates every pedestrian at every frame time at
once, ray-casts the walls once and runs one slab test over all (frame, body)
pairs; the blockage and power models then work on arrays of those pairs.
These tests draw random scenes and compare every output, as raw bits,
against the loop kept in ``tests/scene/per_frame_oracle.py``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mmwave import blockage as blockage_module
from repro.mmwave import (
    BlockageModel,
    KnifeEdgeBlockageModel,
    PiecewiseLinearBlockageModel,
    ReceivedPowerModel,
)
from repro.scene import (
    CorridorScene,
    CrossingPedestrian,
    DepthCameraIntrinsics,
    LoiteringPedestrian,
    Pedestrian,
)
from repro.scene.actors import PedestrianState
from repro.scene.environment import BlockerArrays, BlockerGeometry
from repro.scene.geometry import AxisAlignedBox
from tests.scene import per_frame_oracle as oracle

INTERVAL = 0.033


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_bitwise(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    if expected.dtype == bool:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_array_equal(bits(actual), bits(expected))


def blocker_rows(blockers):
    return [
        (b.blocking, b.clearance_m, b.distance_from_tx_m, b.distance_from_rx_m, b.body_width_m)
        for b in blockers
    ]


def assert_same_blockers(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(blocker_rows(actual), blocker_rows(expected)):
        assert type(got[0]) is bool and got[0] == want[0]
        assert_bitwise(got[1:], want[1:])


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Frame indices: start and end times drawn from these land exactly on a frame.
frame_time = st.integers(0, 60).map(lambda index: index * INTERVAL)


@st.composite
def crossing(draw):
    exact = draw(st.booleans())
    start = draw(frame_time) if exact else draw(finite.filter(lambda t: -1 <= t <= 2.5))
    half = draw(st.floats(0.3, 3.0))
    forward = draw(st.booleans())
    return CrossingPedestrian(
        crossing_x=draw(st.floats(-1.0, 5.0)),
        start_time_s=start,
        speed_mps=draw(st.floats(0.2, 30.0)),
        start_y=-half if forward else half,
        end_y=half if forward else -half,
        body_size=(draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 2.5))),
    )


@st.composite
def loitering(draw):
    start_index = draw(st.integers(0, 40))
    end = draw(st.one_of(st.just(float("inf")), st.integers(start_index + 1, 90)))
    # Position [0, 0, 0] puts the camera (at the UE, 1 m up) inside the body.
    position = draw(
        st.one_of(
            st.just([0.0, 0.0, 0.0]),
            st.tuples(st.floats(-1.0, 5.0), st.floats(-2.0, 2.0), st.just(0.0)).map(list),
        )
    )
    return LoiteringPedestrian(
        position=position,
        start_time_s=start_index * INTERVAL,
        end_time_s=end * INTERVAL if end != float("inf") else end,
        sway_amplitude_m=draw(st.sampled_from([0.0, 0.1, 0.4])),
        sway_period_s=draw(st.floats(0.2, 3.0)),
    )


@st.composite
def scenes(draw):
    pedestrians = draw(st.lists(st.one_of(crossing(), loitering()), max_size=6))
    intrinsics = DepthCameraIntrinsics(
        width=draw(st.integers(1, 9)),
        height=draw(st.integers(1, 9)),
        horizontal_fov_deg=draw(st.sampled_from([57.0, 90.0])),
        min_range_m=draw(st.sampled_from([0.0, 0.5])),
        max_range_m=draw(st.sampled_from([8.0, 12.0])),
    )
    return CorridorScene(
        link_distance_m=draw(st.sampled_from([4.0, 8.0, 2.5])),
        pedestrians=pedestrians,
        frame_interval_s=INTERVAL,
        camera_intrinsics=intrinsics,
        include_walls=draw(st.booleans()),
    )


@given(scenes(), st.integers(0, 50), st.integers(0, 40), st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_simulate_matches_per_frame_loop(scene, start_index, count, seed):
    batch = scene.simulate(count, start_index)
    frames = oracle.frames(scene, count, start_index)

    expected_images = np.array([frame.depth_image for frame in frames]).reshape(
        (count,) + batch.depth_images.shape[1:]
    )
    assert_bitwise(batch.depth_images, expected_images)
    assert_bitwise(batch.times_s, [frame.time_s for frame in frames])
    assert_bitwise(
        batch.line_of_sight_blocked,
        np.array([frame.line_of_sight_blocked for frame in frames], dtype=bool),
    )
    for got, want in zip(batch, frames):
        assert got.index == want.index
        assert_same_blockers(got.blockers, want.blockers)

    for blockage in (KnifeEdgeBlockageModel(), PiecewiseLinearBlockageModel()):
        batched = ReceivedPowerModel.with_default_randomness(
            seed=seed, blockage_model=blockage
        ).power_trace_dbm(scene, batch)
        looped = oracle.power_trace_dbm(
            ReceivedPowerModel.with_default_randomness(seed=seed, blockage_model=blockage),
            scene,
            frames,
        )
        assert_bitwise(batched, looped)


@given(scenes(), st.integers(0, 90))
@settings(max_examples=40, deadline=None)
def test_one_frame_views_match_per_frame_loop(scene, index):
    time_s = index * INTERVAL
    batch = scene.simulate(1, index)
    frame = batch[0]
    expected = oracle.frame_at(scene, index)
    assert_bitwise(frame.depth_image, expected.depth_image)
    assert_same_blockers(frame.blockers, expected.blockers)
    assert frame.time_s == expected.time_s

    assert batch.line_of_sight_blocked[0] == oracle.line_of_sight_blocked(scene, time_s)
    bodies = [
        AxisAlignedBox(low, high)
        for pedestrian in scene.pedestrians
        for low, high in zip(*pedestrian.bodies_at([time_s])[1:])
    ]
    expected_bodies = oracle.active_bodies(scene, time_s)
    assert len(bodies) == len(expected_bodies)
    for body, want in zip(bodies, expected_bodies):
        assert_bitwise(body.minimum, want.minimum)
        assert_bitwise(body.maximum, want.maximum)
    assert_same_blockers(
        frame.blockers, [oracle.blocker_geometry(scene, want) for want in expected_bodies]
    )
    boxes = scene.static_boxes + bodies
    assert_bitwise(scene.camera.render(boxes), oracle.render(scene.camera, boxes))

    for model in (KnifeEdgeBlockageModel(), PiecewiseLinearBlockageModel()):
        assert_bitwise(
            model.frame_attenuations_db(batch.blockers),
            [oracle.attenuation_db(model, expected.blockers)],
        )
        assert_bitwise(
            model.body_attenuations_db(batch.blockers),
            [oracle.single_body_attenuation_db(model, blocker) for blocker in frame.blockers],
        )


def random_blockers(rng, frames):
    """Per-frame blocker lists spanning the shadow zone, its edge and beyond."""
    per_frame = []
    for _ in range(frames):
        blockers = []
        for _ in range(rng.integers(0, 5)):
            width = float(rng.choice([0.5, rng.uniform(0.1, 1.0)]))
            clearance = float(rng.choice([0.0, width / 2.0, rng.uniform(0.0, 1.5)]))
            from_tx = float(rng.choice([0.0, 5e-4, rng.uniform(0.0, 4.0)]))
            blockers.append(
                BlockerGeometry(
                    blocking=bool(clearance < width / 2.0),
                    clearance_m=clearance,
                    distance_from_tx_m=from_tx,
                    distance_from_rx_m=4.0 - from_tx,
                    body_width_m=width,
                )
            )
        per_frame.append(blockers)
    return per_frame


@pytest.mark.parametrize(
    "model",
    [
        KnifeEdgeBlockageModel(),
        KnifeEdgeBlockageModel(frequency_hz=28e9, max_attenuation_db=9.0),
        PiecewiseLinearBlockageModel(),
        PiecewiseLinearBlockageModel(max_attenuation_db=7.0, inner_clearance_m=0.0),
    ],
)
def test_blockage_models_match_per_body_loop(model):
    per_frame = random_blockers(np.random.default_rng(11), 1500)
    rows = BlockerArrays.from_lists(per_frame)
    assert_bitwise(
        model.frame_attenuations_db(rows),
        [oracle.attenuation_db(model, blockers) for blockers in per_frame],
    )
    assert_bitwise(
        model.body_attenuations_db(rows),
        [oracle.single_body_attenuation_db(model, b) for bs in per_frame for b in bs],
    )


def neumaier_sum(values):
    """The builtin ``sum`` of Python 3.12+ over floats: compensated (Neumaier)."""
    values = list(values)
    if not values:
        return 0
    total, compensation = 0 + values[0], 0.0
    for value in values[1:]:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and np.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize(
    "model",
    [
        KnifeEdgeBlockageModel(),
        PiecewiseLinearBlockageModel(inner_clearance_m=0.0, outer_clearance_m=1.5),
    ],
)
def test_frame_totals_follow_the_interpreters_sum(model, monkeypatch):
    """Frame totals match a one-frame sum() under the 3.12 compensated sum too."""
    per_frame = random_blockers(np.random.default_rng(12), 1500)
    sequential = [oracle.attenuation_db(model, blockers) for blockers in per_frame]
    monkeypatch.setattr(blockage_module, "sum", neumaier_sum, raising=False)
    monkeypatch.setattr(oracle, "sum", neumaier_sum, raising=False)
    expected = [oracle.attenuation_db(model, blockers) for blockers in per_frame]
    # The data must tell the two summations apart, or this test sees nothing.
    assert expected != sequential
    assert_bitwise(model.frame_attenuations_db(BlockerArrays.from_lists(per_frame)), expected)


class CirclingPedestrian(Pedestrian):
    """A user model that only implements the per-time ``state_at``."""

    def state_at(self, time_s):
        angle = 2.0 * time_s
        position = np.array([2.0 + np.cos(angle), np.sin(angle), 0.0])
        return PedestrianState(position, np.zeros(3), active=angle % 3.0 < 2.0)


class NearestBodyModel(BlockageModel):
    """A user model that only implements the one-frame ``attenuation_db``."""

    def attenuation_db(self, blockers):
        return min((10.0 / (1.0 + b.clearance_m) for b in blockers), default=0.0)


def test_user_subclasses_run_through_per_time_defaults():
    scene = CorridorScene(
        pedestrians=[CirclingPedestrian(), LoiteringPedestrian([1.0, 0.3, 0.0])],
        camera_intrinsics=DepthCameraIntrinsics(width=7, height=5),
    )
    batch = scene.simulate(40, 3)
    frames = oracle.frames(scene, 40, 3)
    assert_bitwise(batch.depth_images, np.array([f.depth_image for f in frames]))
    for got, want in zip(batch, frames):
        assert_same_blockers(got.blockers, want.blockers)

    model = ReceivedPowerModel(blockage_model=NearestBodyModel())
    assert_bitwise(
        model.power_trace_dbm(scene, batch), oracle.power_trace_dbm(model, scene, frames)
    )


def test_generator_matches_per_frame_loop():
    from repro.dataset.generator import DatasetConfig, MmWaveDepthDatasetGenerator

    config = DatasetConfig(
        num_samples=600, image_height=5, image_width=7, seed=4, scenario="dense_crowd"
    )
    dataset = MmWaveDepthDatasetGenerator(config).generate()
    images, powers, blocked = oracle.generate(MmWaveDepthDatasetGenerator(config))
    assert_bitwise(dataset.images, images)
    assert_bitwise(dataset.powers_dbm, powers)
    assert_bitwise(dataset.line_of_sight_blocked, blocked)


def test_simulate_rejects_negative_arguments():
    scene = CorridorScene()
    with pytest.raises(ValueError):
        scene.simulate(-1)
    with pytest.raises(ValueError):
        scene.simulate(1, -1)
    assert len(scene.simulate(0)) == 0
