"""Tests for the synthetic dataset generator."""
import numpy as np
import pytest

from repro.dataset import (
    DatasetConfig,
    DepthPowerDataset,
    MmWaveDepthDatasetGenerator,
    PAPER_NUM_SAMPLES,
    PAPER_TRAIN_BOUNDARY,
    config_fingerprint,
    generate_small_dataset,
)
from repro.scene import DEFAULT_FRAME_INTERVAL_S


def test_paper_constants():
    assert PAPER_NUM_SAMPLES == 13228
    assert PAPER_TRAIN_BOUNDARY == 9928


def test_dataset_config_defaults_match_paper():
    config = DatasetConfig()
    assert config.num_samples == PAPER_NUM_SAMPLES
    assert config.image_height == 40 and config.image_width == 40
    assert config.frame_interval_s == pytest.approx(0.033)
    assert config.link_distance_m == pytest.approx(4.0)
    assert config.duration_s == pytest.approx(13228 * 0.033)


def test_dataset_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(num_samples=0)
    with pytest.raises(ValueError):
        DatasetConfig(image_height=-1)
    with pytest.raises(ValueError):
        DatasetConfig(frame_interval_s=0.0)


@pytest.mark.parametrize(
    "arguments, error",
    [
        ({"num_samples": 50.0}, TypeError),
        ({"num_samples": 50.5}, TypeError),
        ({"image_height": 8.0}, TypeError),
        ({"image_width": True}, TypeError),
        ({"seed": True}, TypeError),
        ({"seed": 1.0}, TypeError),
        ({"frame_interval_s": float("nan")}, ValueError),
        ({"link_distance_m": float("nan")}, ValueError),
    ],
    ids=lambda value: str(value) if isinstance(value, dict) else value.__name__,
)
def test_dataset_config_rejects_non_integers_and_nan(arguments, error):
    with pytest.raises(error):
        DatasetConfig(**arguments)


def test_dataset_config_stores_one_spelling_per_dataset():
    """A numpy integer is stored as the ``int`` it equals, so both spellings
    share one dataset-cache key."""
    plain = DatasetConfig(num_samples=50, image_height=8, image_width=8, seed=3)
    numpy_spelled = DatasetConfig(
        num_samples=np.int64(50),
        image_height=np.int32(8),
        image_width=8,
        seed=np.uint8(3),
    )
    assert type(numpy_spelled.num_samples) is int
    assert type(numpy_spelled.seed) is int
    assert numpy_spelled == plain
    assert config_fingerprint(numpy_spelled) == config_fingerprint(plain)


def test_small_dataset_shapes(small_dataset):
    assert len(small_dataset) == 260
    assert small_dataset.images.shape == (260, 12, 12)
    assert small_dataset.powers_dbm.shape == (260,)
    assert small_dataset.line_of_sight_blocked.shape == (260,)


def test_small_dataset_value_ranges(small_dataset):
    assert small_dataset.images.min() >= 0.0
    assert small_dataset.images.max() <= 1.0
    assert np.all(small_dataset.powers_dbm < 0.0)
    assert np.all(small_dataset.powers_dbm > -80.0)


def test_dataset_contains_blockage_events(small_dataset):
    assert 0.01 < small_dataset.blockage_fraction < 0.6


def test_blocked_frames_have_lower_power(small_dataset):
    blocked = small_dataset.line_of_sight_blocked
    assert small_dataset.powers_dbm[~blocked].mean() > small_dataset.powers_dbm[blocked].mean() + 8.0


def test_blocked_frames_show_closer_depth(small_dataset):
    blocked = small_dataset.line_of_sight_blocked
    # A body in the LoS is close to the camera, so the minimum depth drops.
    blocked_min = small_dataset.images[blocked].min(axis=(1, 2)).mean()
    clear_min = small_dataset.images[~blocked].min(axis=(1, 2)).mean()
    assert blocked_min < clear_min


def test_generation_is_deterministic_per_seed():
    a = generate_small_dataset(num_samples=80, image_size=8, seed=3)
    b = generate_small_dataset(num_samples=80, image_size=8, seed=3)
    c = generate_small_dataset(num_samples=80, image_size=8, seed=4)
    assert np.allclose(a.images, b.images)
    assert np.allclose(a.powers_dbm, b.powers_dbm)
    assert not np.allclose(a.powers_dbm, c.powers_dbm)


def test_times_and_metadata(small_dataset):
    assert small_dataset.frame_interval_s == DEFAULT_FRAME_INTERVAL_S
    assert small_dataset.metadata["num_samples"] == 260


def test_dataset_validation_mismatched_lengths():
    with pytest.raises(ValueError):
        DepthPowerDataset(
            images=np.zeros((5, 4, 4)),
            powers_dbm=np.zeros(4),
            line_of_sight_blocked=np.zeros(5, dtype=bool),
        )
    with pytest.raises(ValueError):
        DepthPowerDataset(
            images=np.zeros((5, 4)),
            powers_dbm=np.zeros(5),
            line_of_sight_blocked=np.zeros(5, dtype=bool),
        )


def test_generator_builds_scene_with_traffic():
    generator = MmWaveDepthDatasetGenerator(
        DatasetConfig(num_samples=150, image_height=8, image_width=8, seed=0,
                      mean_interarrival_s=1.5)
    )
    scene = generator.build_scene()
    assert len(scene.pedestrians) >= 1
    assert scene.camera.intrinsics.width == 8
