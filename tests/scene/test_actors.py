"""Tests for pedestrian actors and traffic generation."""
import numpy as np
import pytest

from repro.scene import (
    CrossingPedestrian,
    LoiteringPedestrian,
    PedestrianTrafficConfig,
    generate_crossing_traffic,
    periodic_crossing_traffic,
)


def test_crossing_pedestrian_timeline():
    pedestrian = CrossingPedestrian(
        crossing_x=2.0, start_time_s=1.0, speed_mps=1.0, start_y=-2.0, end_y=2.0
    )
    assert pedestrian.duration_s == pytest.approx(4.0)
    assert pedestrian.end_time_s == pytest.approx(5.0)
    # Halfway along its walk, at t = 3 s, the body center is on the link line.
    active, positions = pedestrian.states_at([3.0])
    assert active[0]
    assert positions[0, 1] == pytest.approx(0.0)


def test_crossing_pedestrian_inactive_outside_window():
    pedestrian = CrossingPedestrian(crossing_x=2.0, start_time_s=1.0)
    assert not pedestrian.state_at(0.5).active
    indices, _, _ = pedestrian.bodies_at([0.5])
    assert len(indices) == 0
    assert not pedestrian.state_at(100.0).active


def test_crossing_pedestrian_position_progression():
    pedestrian = CrossingPedestrian(
        crossing_x=2.0, start_time_s=0.0, speed_mps=2.0, start_y=-2.0, end_y=2.0
    )
    state = pedestrian.state_at(1.0)
    assert state.active
    assert state.position[1] == pytest.approx(0.0)
    assert state.position[0] == pytest.approx(2.0)
    assert state.velocity[1] == pytest.approx(2.0)


def test_crossing_pedestrian_reverse_direction():
    pedestrian = CrossingPedestrian(
        crossing_x=1.0, start_time_s=0.0, speed_mps=1.0, start_y=2.0, end_y=-2.0
    )
    state = pedestrian.state_at(1.0)
    assert state.position[1] == pytest.approx(1.0)
    assert state.velocity[1] == pytest.approx(-1.0)


def test_crossing_pedestrian_body_box_centered_at_half_height():
    pedestrian = CrossingPedestrian(
        crossing_x=2.0, start_time_s=0.0, body_size=(0.3, 0.5, 1.8)
    )
    indices, minimum, maximum = pedestrian.bodies_at([2.0])  # on the link line
    assert indices.tolist() == [0]
    assert minimum[0, 2] == pytest.approx(0.0)
    assert maximum[0, 2] == pytest.approx(1.8)
    assert (minimum[0, 0] + maximum[0, 0]) / 2.0 == pytest.approx(2.0)


def test_crossing_pedestrian_validation():
    with pytest.raises(ValueError):
        CrossingPedestrian(crossing_x=1.0, start_time_s=0.0, speed_mps=0.0)
    with pytest.raises(ValueError):
        CrossingPedestrian(crossing_x=1.0, start_time_s=0.0, start_y=1.0, end_y=1.0)
    with pytest.raises(ValueError):
        CrossingPedestrian(crossing_x=1.0, start_time_s=0.0, body_size=(0, 1, 1))


def test_loitering_pedestrian_static_and_swaying():
    static = LoiteringPedestrian(position=[2.0, 0.0, 0.0])
    assert np.allclose(static.state_at(0.0).position, static.state_at(10.0).position)

    swaying = LoiteringPedestrian(
        position=[2.0, 0.0, 0.0], sway_amplitude_m=0.5, sway_period_s=2.0
    )
    quarter_period = swaying.state_at(0.5)
    assert quarter_period.position[1] == pytest.approx(0.5, abs=1e-9)


def test_loitering_pedestrian_active_window():
    pedestrian = LoiteringPedestrian(position=[1, 0, 0], start_time_s=1.0, end_time_s=2.0)
    assert not pedestrian.state_at(0.5).active
    assert pedestrian.state_at(1.5).active
    assert not pedestrian.state_at(2.5).active
    with pytest.raises(ValueError):
        LoiteringPedestrian(position=[1, 0, 0], start_time_s=2.0, end_time_s=1.0)


def test_generate_crossing_traffic_deterministic_and_in_range():
    config = PedestrianTrafficConfig(mean_interarrival_s=2.0)
    traffic_a = generate_crossing_traffic(60.0, config, seed=3)
    traffic_b = generate_crossing_traffic(60.0, config, seed=3)
    assert len(traffic_a) == len(traffic_b) > 5
    for a, b in zip(traffic_a, traffic_b):
        assert a.start_time_s == pytest.approx(b.start_time_s)
    for pedestrian in traffic_a:
        assert 0.0 <= pedestrian.start_time_s < 60.0
        assert config.speed_range_mps[0] <= pedestrian.speed_mps <= config.speed_range_mps[1]
        assert config.crossing_x_range[0] <= pedestrian.crossing_x <= config.crossing_x_range[1]


def test_generate_crossing_traffic_rate_scales_with_interarrival():
    sparse = generate_crossing_traffic(
        200.0, PedestrianTrafficConfig(mean_interarrival_s=10.0), seed=0
    )
    dense = generate_crossing_traffic(
        200.0, PedestrianTrafficConfig(mean_interarrival_s=2.0), seed=0
    )
    assert len(dense) > 2 * len(sparse)


def test_generate_crossing_traffic_validation():
    with pytest.raises(ValueError):
        generate_crossing_traffic(0.0)
    with pytest.raises(ValueError):
        PedestrianTrafficConfig(mean_interarrival_s=-1.0)
    with pytest.raises(ValueError):
        PedestrianTrafficConfig(speed_range_mps=(1.5, 0.8))


@pytest.mark.parametrize("field", ["mean_interarrival_s", "corridor_half_width_m"])
def test_traffic_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        PedestrianTrafficConfig(**{field: float("nan")})


def test_periodic_crossing_traffic_spacing():
    traffic = periodic_crossing_traffic(duration_s=20.0, period_s=5.0, first_crossing_s=1.0)
    assert len(traffic) == 4
    starts = [p.start_time_s for p in traffic]
    assert np.allclose(np.diff(starts), 5.0)
    directions = [np.sign(p.end_y - p.start_y) for p in traffic]
    assert directions[0] != directions[1]  # alternating direction


def test_periodic_crossing_traffic_validation():
    with pytest.raises(ValueError):
        periodic_crossing_traffic(duration_s=-1.0)
