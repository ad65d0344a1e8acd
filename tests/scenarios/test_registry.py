"""Tests for the scenario presets, registry and config-hash identity."""
import dataclasses

import numpy as np
import pytest

from repro.channel.params import PAPER_CHANNEL_PARAMS
from repro.experiments import ExperimentScale
from repro.scenarios import (
    DEFAULT_SCENARIOS,
    Scenario,
    all_scenarios,
    get_scenario,
    register,
    scenario_fingerprint,
    scenario_names,
)
from repro.scenarios import registry
from repro.scene.actors import PedestrianTrafficConfig


EXPECTED_PRESETS = {
    "paper_baseline",
    "dense_crowd",
    "sparse_traffic",
    "fast_walkers",
    "long_corridor",
    "wide_fov_camera",
}


def test_builtin_presets_are_registered():
    assert EXPECTED_PRESETS <= set(scenario_names())
    assert len(DEFAULT_SCENARIOS) >= 6
    for scenario in DEFAULT_SCENARIOS:
        assert get_scenario(scenario.name) is scenario


def test_get_scenario_normalizes_instances_and_names():
    baseline = get_scenario("paper_baseline")
    assert get_scenario(baseline) is baseline
    with pytest.raises(TypeError):
        get_scenario(42)


def test_unknown_scenario_lists_catalog():
    with pytest.raises(KeyError, match="paper_baseline"):
        get_scenario("does_not_exist")


def test_register_rejects_conflicting_redefinition(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    custom = Scenario(name="test_custom_corridor", link_distance_m=5.0)
    register(custom)
    # Identical re-registration is a no-op.
    register(custom)
    conflicting = Scenario(name="test_custom_corridor", link_distance_m=6.0)
    with pytest.raises(ValueError, match="already registered"):
        register(conflicting)
    register(conflicting, overwrite=True)
    assert get_scenario("test_custom_corridor").link_distance_m == 6.0
    monkeypatch.undo()
    assert "test_custom_corridor" not in scenario_names()


def test_fingerprint_is_content_addressed():
    baseline = get_scenario("paper_baseline")
    # Renaming does not change the fingerprint ...
    renamed = dataclasses.replace(baseline, name="other_name", description="x")
    assert scenario_fingerprint(renamed) == scenario_fingerprint(baseline)
    # ... but any physical change does.
    moved = dataclasses.replace(baseline, link_distance_m=4.5)
    assert scenario_fingerprint(moved) != scenario_fingerprint(baseline)
    # All presets are physically distinct.
    fingerprints = {s.fingerprint for s in DEFAULT_SCENARIOS}
    assert len(fingerprints) == len(DEFAULT_SCENARIOS)


#: ``scenario_fingerprint`` of every built-in preset.  It keys the dataset
#: cache, so a validation change (which must not rewrite a valid field) may
#: not move any of them.
PINNED_FINGERPRINTS = {
    "dense_crowd": "ff01650ad84f8027",
    "fast_walkers": "c850bef54bbcd946",
    "long_corridor": "e15a21208113d5a9",
    "paper_baseline": "ce6749e6bcd13441",
    "sparse_traffic": "0e16899654dc6ddc",
    "wide_fov_camera": "61db65c0a5395801",
}


def test_preset_fingerprints_are_pinned():
    assert {
        scenario.name: scenario_fingerprint(scenario) for scenario in DEFAULT_SCENARIOS
    } == PINNED_FINGERPRINTS


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="")
    with pytest.raises(ValueError):
        Scenario(name="bad name")
    with pytest.raises(ValueError):
        Scenario(name="x", link_distance_m=0.0)
    with pytest.raises(ValueError):
        Scenario(name="x", crossing_fraction_range=(0.9, 0.1))


def test_scenario_walk_span_must_fit_inside_walls():
    # Default traffic walks +-2.0 m; walls at +-1.0 m would be clipped through.
    with pytest.raises(ValueError, match="walk span"):
        Scenario(name="narrow", corridor_half_width_m=1.0)
    # Narrowing both consistently is fine.
    narrow = Scenario(
        name="narrow",
        corridor_half_width_m=1.0,
        traffic=PedestrianTrafficConfig(corridor_half_width_m=1.0),
    )
    assert narrow.traffic.corridor_half_width_m == pytest.approx(1.0)


def test_with_scenario_rejects_unregistered_instances(monkeypatch):
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    unregistered = Scenario(name="never_registered", link_distance_m=5.0)
    with pytest.raises(ValueError, match="not registered"):
        ExperimentScale.fast().with_scenario(unregistered)
    # A registered instance binds by name.
    register(unregistered)
    scale = ExperimentScale.fast().with_scenario(unregistered)
    assert scale.scenario == "never_registered"


def test_preset_physics():
    assert get_scenario("dense_crowd").traffic.mean_interarrival_s < 4.0
    assert get_scenario("sparse_traffic").traffic.mean_interarrival_s > 4.0
    assert get_scenario("fast_walkers").traffic.speed_range_mps[0] > 1.5
    long_corridor = get_scenario("long_corridor")
    assert long_corridor.link_distance_m == pytest.approx(8.0)
    assert long_corridor.channel.distance_m == pytest.approx(8.0)
    assert long_corridor.channel.mean_snr("uplink") < PAPER_CHANNEL_PARAMS.mean_snr(
        "uplink"
    )
    assert get_scenario("wide_fov_camera").camera.horizontal_fov_deg == pytest.approx(
        90.0
    )


def test_crossing_x_range_scales_with_link_distance():
    baseline = get_scenario("paper_baseline")
    assert baseline.crossing_x_range() == pytest.approx((1.0, 3.0))
    assert baseline.crossing_x_range(8.0) == pytest.approx((2.0, 6.0))


def test_scale_composes_scenario_into_dataset_config():
    fast = ExperimentScale.fast()
    baseline_config = fast.dataset_config()
    assert baseline_config.scenario == "paper_baseline"
    # The fast scale keeps its historical densified traffic for the baseline.
    assert baseline_config.mean_interarrival_s == pytest.approx(1.2)

    dense_config = fast.with_scenario("dense_crowd").dataset_config()
    assert dense_config.scenario == "dense_crowd"
    assert dense_config.mean_interarrival_s < baseline_config.mean_interarrival_s

    long_config = fast.with_scenario("long_corridor").dataset_config()
    assert long_config.link_distance_m == pytest.approx(8.0)


def test_with_seed_takes_integers_only():
    fast = ExperimentScale.fast()
    with pytest.raises(TypeError, match="seed"):
        fast.with_seed(1.5)
    with pytest.raises(TypeError, match="seed"):
        fast.with_seed(True)
    seeded = fast.with_seed(np.int64(3))
    assert seeded.seed == 3 and type(seeded.seed) is int


def test_with_seed_and_with_scenario_are_pure():
    fast = ExperimentScale.fast()
    other = fast.with_scenario("dense_crowd").with_seed(7)
    assert fast.scenario == "paper_baseline" and fast.seed == 0
    assert other.scenario == "dense_crowd" and other.seed == 7


def test_generator_honours_scenario_geometry():
    from repro.dataset.generator import MmWaveDepthDatasetGenerator

    scale = ExperimentScale.smoke().with_scenario("long_corridor")
    generator = MmWaveDepthDatasetGenerator(scale.dataset_config())
    scene = generator.build_scene()
    assert scene.link_distance_m == pytest.approx(8.0)
    assert scene.camera.intrinsics.max_range_m == pytest.approx(12.0)
    assert generator.power_model.link_budget == get_scenario("long_corridor").link_budget

    wide = ExperimentScale.smoke().with_scenario("wide_fov_camera")
    wide_scene = MmWaveDepthDatasetGenerator(wide.dataset_config()).build_scene()
    assert wide_scene.camera.intrinsics.horizontal_fov_deg == pytest.approx(90.0)
    # Resolution still comes from the scale, not the scenario default.
    assert wide_scene.camera.intrinsics.width == wide.image_size


def test_experiment_config_for_scenario():
    from repro.split import ExperimentConfig

    config = ExperimentConfig.for_scenario("long_corridor")
    assert config.channel.distance_m == pytest.approx(8.0)
    baseline = ExperimentConfig.for_scenario("paper_baseline")
    assert baseline.channel == PAPER_CHANNEL_PARAMS
    with pytest.raises(KeyError):
        ExperimentConfig.for_scenario("nonexistent")


def test_traffic_interarrival_scaling_helper():
    config = PedestrianTrafficConfig(mean_interarrival_s=4.0)
    denser = config.with_interarrival_scale(0.3)
    assert denser.mean_interarrival_s == pytest.approx(1.2)
    with pytest.raises(ValueError):
        config.with_interarrival_scale(0.0)


def test_all_scenarios_returns_snapshot():
    snapshot = all_scenarios()
    snapshot["injected"] = get_scenario("paper_baseline")
    assert "injected" not in scenario_names()
