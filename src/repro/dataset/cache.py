"""On-disk caching of generated datasets.

Generating the full 13,228-sample replica takes a little while (ray casting
one depth frame per sample), so experiments cache the result as an ``.npz``
archive keyed by the generator configuration.
"""
from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.dataset.generator import (
    DatasetConfig,
    DepthPowerDataset,
    MmWaveDepthDatasetGenerator,
)
from repro.nn.serialization import atomic_savez
from repro.scenarios import get_scenario, scenario_fingerprint

#: Version of the numerical semantics behind every cached artifact.  It is
#: hashed into the dataset and trained-model cache keys, so bumping it makes
#: stale entries miss instead of being served.  Bump it whenever a change
#: moves generated data or training trajectories, even at the ulp level, and
#: re-pin ``tests/regression/test_trajectory_version.py`` in the same change.
#:
#: 1: ``Conv2D`` computes its input gradient as a transposed convolution
#:    instead of a ``col2im`` scatter-add.
#: 2: one training step for both fleet modes; a parallel-average step adds
#:    its simulated time as ``compute + (uplink + downlink)``, so parallel
#:    elapsed and occupancy values move by up to 1 ulp per step (rotation
#:    runs are unchanged).
TRAJECTORY_VERSION = 2


def save_dataset(dataset: DepthPowerDataset, path: str | os.PathLike) -> None:
    """Persist a dataset to an ``.npz`` archive.

    The write goes through :func:`repro.nn.serialization.atomic_savez`
    (temporary file + atomic rename), so concurrent sweep workers caching
    the same configuration never observe a half-written archive.
    """
    atomic_savez(
        path,
        {
            "images": dataset.images,
            "powers_dbm": dataset.powers_dbm,
            "line_of_sight_blocked": dataset.line_of_sight_blocked,
            "frame_interval_s": np.array(dataset.frame_interval_s),
            "metadata": np.array(json.dumps(dataset.metadata)),
        },
        compressed=True,
    )


def load_dataset(path: str | os.PathLike) -> DepthPowerDataset:
    """Load a dataset previously stored with :func:`save_dataset`."""
    path = Path(path)
    if not path.exists():
        candidate = path.with_suffix(path.suffix + ".npz")
        if candidate.exists():
            path = candidate
        else:
            raise FileNotFoundError(str(path))
    with np.load(path, allow_pickle=False) as archive:
        metadata = json.loads(str(archive["metadata"]))
        return DepthPowerDataset(
            images=archive["images"],
            powers_dbm=archive["powers_dbm"],
            line_of_sight_blocked=archive["line_of_sight_blocked"],
            frame_interval_s=float(archive["frame_interval_s"]),
            metadata=metadata,
        )


def config_fingerprint(config: DatasetConfig) -> str:
    """Stable hash of a dataset configuration, used as the cache key.

    The scenario enters through its *content* hash, so a renamed but
    physically identical scenario keeps its cache entries while any change to
    a preset's physics invalidates them; :data:`TRAJECTORY_VERSION` does the
    same for changes to the code.
    """
    payload = json.dumps(
        {
            "trajectory_version": TRAJECTORY_VERSION,
            "num_samples": config.num_samples,
            "image_height": config.image_height,
            "image_width": config.image_width,
            "frame_interval_s": config.frame_interval_s,
            "link_distance_m": config.link_distance_m,
            "mean_interarrival_s": config.mean_interarrival_s,
            "speed_range_mps": list(config.speed_range_mps),
            "seed": config.seed,
            "scenario": scenario_fingerprint(get_scenario(config.scenario)),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_cache_dir() -> Path:
    """Cache directory (override with the REPRO_CACHE_DIR environment variable)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mmwave-sl"


def dataset_cache_path(
    config: DatasetConfig, cache_dir: str | os.PathLike | None = None
) -> Path:
    """Cache-archive path for ``config``.

    The file may exist yet hold an unreadable entry; :func:`load_cached_dataset`
    decides whether an entry is a hit.
    """
    cache_root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return cache_root / f"dataset-{config_fingerprint(config)}.npz"


def load_cached_dataset(
    config: DatasetConfig, cache_dir: str | os.PathLike | None = None
) -> DepthPowerDataset | None:
    """The cached dataset for ``config``, or ``None`` on a miss.

    An entry that cannot be read back whole counts as a miss: a truncated
    or corrupted archive, a missing array, or images whose shape is not the
    config's ``(num_samples, image_height, image_width)``.
    """
    cache_path = dataset_cache_path(config, cache_dir)
    if not cache_path.exists():
        return None
    try:
        dataset = load_dataset(cache_path)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    expected = (config.num_samples, config.image_height, config.image_width)
    if dataset.images.shape != expected:
        return None
    return dataset


def get_or_generate(
    config: DatasetConfig,
    cache_dir: str | os.PathLike | None = None,
    force_regenerate: bool = False,
) -> DepthPowerDataset:
    """Return a cached dataset for ``config``, generating and caching if needed.

    A miss, including an unreadable entry (see :func:`load_cached_dataset`),
    regenerates the dataset and atomically replaces the entry.
    """
    if not force_regenerate:
        cached = load_cached_dataset(config, cache_dir)
        if cached is not None:
            return cached
    dataset = MmWaveDepthDatasetGenerator(config).generate()
    save_dataset(dataset, dataset_cache_path(config, cache_dir))
    return dataset
