"""A dataset-cache entry that cannot be read back whole is a miss.

Each test writes a good entry, damages it, and checks that the next lookup
regenerates the dataset bit for bit and atomically replaces the entry.
"""
import dataclasses

import numpy as np
import pytest

from repro.dataset import (
    DatasetConfig,
    dataset_cache_path,
    get_or_generate,
    load_cached_dataset,
    load_dataset,
    save_dataset,
)
from repro.nn.serialization import atomic_savez

CONFIG = DatasetConfig(num_samples=50, image_height=8, image_width=8, seed=3)


def assert_same_dataset(actual, expected):
    for name in ("images", "powers_dbm", "line_of_sight_blocked"):
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert actual.metadata == expected.metadata


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def drop_key(path):
    with np.load(path, allow_pickle=False) as archive:
        kept = {name: archive[name] for name in archive.files if name != "powers_dbm"}
    atomic_savez(path, kept)


def wrong_shape(path):
    dataset = load_dataset(path)
    short = dataclasses.replace(
        dataset,
        images=dataset.images[:-1],
        powers_dbm=dataset.powers_dbm[:-1],
        line_of_sight_blocked=dataset.line_of_sight_blocked[:-1],
    )
    save_dataset(short, path)


@pytest.mark.parametrize("damage", [truncate, flip_byte, drop_key, wrong_shape])
def test_damaged_cache_entry_is_regenerated(tmp_path, damage):
    fresh = get_or_generate(CONFIG, cache_dir=tmp_path)
    path = dataset_cache_path(CONFIG, tmp_path)
    damage(path)
    assert load_cached_dataset(CONFIG, cache_dir=tmp_path) is None

    regenerated = get_or_generate(CONFIG, cache_dir=tmp_path)
    assert_same_dataset(regenerated, fresh)
    # The entry was rewritten whole: the next lookup hits and no temporary
    # file is left beside it.
    assert_same_dataset(load_cached_dataset(CONFIG, cache_dir=tmp_path), fresh)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_missing_entry_is_a_miss(tmp_path):
    assert load_cached_dataset(CONFIG, cache_dir=tmp_path) is None
