"""Tests for sequence building, splitting and caching."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.dataset import (
    PAPER_HORIZON_S,
    PAPER_SEQUENCE_LENGTH,
    PAPER_TRAIN_FRACTION,
    DatasetConfig,
    build_sequences,
    config_fingerprint,
    get_or_generate,
    horizon_in_frames,
    load_dataset,
    save_dataset,
    temporal_split,
)
from repro.experiments.common import prepare_split


def test_paper_sequence_constants():
    assert PAPER_SEQUENCE_LENGTH == 4
    assert PAPER_HORIZON_S == pytest.approx(0.120)
    assert 0.74 < PAPER_TRAIN_FRACTION < 0.76


def test_horizon_in_frames_paper_values():
    assert horizon_in_frames(0.120, 0.033) == 4
    assert horizon_in_frames(0.033, 0.033) == 1
    assert horizon_in_frames(0.01, 0.033) == 1  # never less than one frame
    with pytest.raises(ValueError):
        horizon_in_frames(0.0, 0.033)


def test_build_sequences_shapes(small_dataset, small_sequences):
    horizon = horizon_in_frames(PAPER_HORIZON_S, small_dataset.frame_interval_s)
    expected = len(small_dataset) - (PAPER_SEQUENCE_LENGTH - 1) - horizon
    assert len(small_sequences) == expected
    assert small_sequences.image_sequences.shape == (expected, 4, 12, 12)
    assert small_sequences.power_sequences.shape == (expected, 4)
    assert small_sequences.targets.shape == (expected,)
    assert small_sequences.sequence_length == 4


def test_sequences_are_correctly_aligned(small_dataset, small_sequences):
    horizon = small_sequences.horizon_frames
    index = 10
    k = small_sequences.last_indices[index]
    assert np.allclose(
        small_sequences.image_sequences[index, -1], small_dataset.images[k]
    )
    assert np.allclose(
        small_sequences.image_sequences[index, 0], small_dataset.images[k - 3]
    )
    assert small_sequences.power_sequences[index, -1] == pytest.approx(
        small_dataset.powers_dbm[k]
    )
    assert small_sequences.targets[index] == pytest.approx(
        small_dataset.powers_dbm[k + horizon]
    )


def test_target_times(small_sequences, small_dataset):
    times = small_sequences.target_times_s
    expected = (
        small_sequences.last_indices + small_sequences.horizon_frames
    ) * small_dataset.frame_interval_s
    assert np.allclose(times, expected)


def test_build_sequences_too_short_dataset(small_dataset):
    tiny = dataclasses.replace(
        small_dataset,
        images=small_dataset.images[:5],
        powers_dbm=small_dataset.powers_dbm[:5],
        line_of_sight_blocked=small_dataset.line_of_sight_blocked[:5],
    )
    with pytest.raises(ValueError):
        build_sequences(tiny, sequence_length=4, horizon_s=0.12)


def test_build_sequences_normalize_power(small_dataset):
    sequences = build_sequences(small_dataset, normalize_power=True)
    assert sequences.power_sequences.mean() == pytest.approx(0.0, abs=1e-9)
    assert sequences.power_sequences.std() == pytest.approx(1.0, abs=1e-9)


def test_sequence_subset(small_sequences):
    subset = small_sequences.subset([0, 5, 9])
    assert len(subset) == 3
    assert np.allclose(subset.targets, small_sequences.targets[[0, 5, 9]])


def _assert_frames_match(sequences, dataset):
    """Every window element is the source frame its frame index names."""
    frames = sequences.frame_indices
    assert frames.shape == (len(sequences), sequences.sequence_length)
    assert np.array_equal(frames[:, -1], sequences.last_indices)
    assert np.array_equal(sequences.image_sequences, dataset.images[frames])


def test_frame_indices_name_each_window_element(small_dataset, small_sequences):
    _assert_frames_match(small_sequences, small_dataset)
    assert np.all(np.diff(small_sequences.frame_indices, axis=1) == 1)
    _assert_frames_match(small_sequences.subset([0, 5, 6, 9, 40]), small_dataset)


def test_frame_indices_survive_the_subsampled_validation_split(
    smoke_scale, smoke_dataset, smoke_split
):
    full = temporal_split(build_sequences(smoke_dataset))
    # The split under test was cut down to the scale's validation windows.
    assert len(smoke_split.validation) == smoke_scale.validation_windows
    assert len(full.validation) > len(smoke_split.validation)
    _assert_frames_match(smoke_split.validation, smoke_dataset)
    _assert_frames_match(smoke_split.train, smoke_dataset)
    # Neighbouring windows still share frames, which is what inference reuses.
    frames = smoke_split.validation.frame_indices
    assert len(np.unique(frames)) < frames.size


def _assert_read_only_view_of_frames(sequences, dataset):
    images = sequences.image_sequences
    assert np.shares_memory(images, dataset.images)
    assert not images.flags.writeable
    with pytest.raises(ValueError):
        images[0, 0, 0, 0] = 0.0


def test_windows_and_split_halves_view_the_frames(small_dataset, small_sequences):
    """Each frame is stored once: the windows and both temporal halves are
    read-only views of ``dataset.images``, with the frames they name."""
    split = temporal_split(small_sequences)
    for sequences in (small_sequences, split.train, split.validation):
        _assert_read_only_view_of_frames(sequences, small_dataset)
        _assert_frames_match(sequences, small_dataset)
    # A gathered subset owns its windows.
    gathered = split.validation.subset([0, 2, 3])
    assert not np.shares_memory(gathered.image_sequences, small_dataset.images)
    _assert_frames_match(gathered, small_dataset)


def test_prepare_split_stores_no_copy_of_the_windows(fast_scale, fast_dataset):
    """At fast scale the windows, split and validation subsample allocate
    about one copy of the frames (2.0 MiB against 2.1 MiB of frames); when
    every window and split half was a copy, the peak was 18.9 MiB."""
    tracemalloc.start()
    try:
        split = prepare_split(fast_scale, dataset=fast_dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * fast_dataset.images.nbytes
    _assert_read_only_view_of_frames(split.train, fast_dataset)


def test_temporal_split_order_and_sizes(small_sequences):
    split = temporal_split(small_sequences, train_fraction=0.8)
    assert len(split.train) + len(split.validation) == len(small_sequences)
    assert len(split.train) / len(small_sequences) == pytest.approx(0.8, abs=0.02)
    assert split.train.last_indices.max() < split.validation.last_indices.min()


def test_temporal_split_validation(small_sequences):
    with pytest.raises(ValueError):
        temporal_split(small_sequences, train_fraction=0.0)
    with pytest.raises(ValueError):
        temporal_split(small_sequences.subset([0]), train_fraction=0.5)


def test_save_and_load_dataset_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "dataset.npz"
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert np.allclose(loaded.images, small_dataset.images)
    assert np.allclose(loaded.powers_dbm, small_dataset.powers_dbm)
    assert loaded.frame_interval_s == pytest.approx(small_dataset.frame_interval_s)
    assert loaded.metadata["num_samples"] == 260


def test_load_missing_dataset_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.npz")


def test_config_fingerprint_stability():
    config_a = DatasetConfig(num_samples=100, seed=1)
    config_b = DatasetConfig(num_samples=100, seed=1)
    config_c = DatasetConfig(num_samples=101, seed=1)
    assert config_fingerprint(config_a) == config_fingerprint(config_b)
    assert config_fingerprint(config_a) != config_fingerprint(config_c)


def test_get_or_generate_uses_cache(tmp_path):
    config = DatasetConfig(num_samples=60, image_height=8, image_width=8, seed=2)
    first = get_or_generate(config, cache_dir=tmp_path)
    cached_files = list(tmp_path.glob("dataset-*.npz"))
    assert len(cached_files) == 1
    second = get_or_generate(config, cache_dir=tmp_path)
    assert np.allclose(first.powers_dbm, second.powers_dbm)
    # Force regeneration still works and produces identical data (same seed).
    third = get_or_generate(config, cache_dir=tmp_path, force_regenerate=True)
    assert np.allclose(first.powers_dbm, third.powers_dbm)
