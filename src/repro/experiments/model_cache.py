"""Content-addressed on-disk cache of *trained* models.

The dataset cache (:mod:`repro.dataset.cache`) made dataset generation pay
once per configuration; this module applies the same discipline to training.
A trained-model cache entry is simply the **final checkpoint** of a completed
run (weights, optimizer state, RNG streams, history — see
:mod:`repro.split.checkpoint`), stored under a fingerprint of everything that
determines the training trajectory:

* the dataset fingerprint (which already folds in the scenario's *content*
  hash, the size knobs and the base seed — the dataset-cache key),
* the full :class:`~repro.experiments.common.ExperimentScale` (validation
  subsampling and eval batching enter the recorded learning curve),
* the model, training and channel configurations,
* the fleet configuration (one UE in rotation mode for the paper's
  single-UE runs) minus its execution-only ``backend`` (the backends are
  bitwise identical), and any extra ``fit`` arguments (e.g. ``max_rounds``),
* :data:`~repro.dataset.cache.TRAJECTORY_VERSION`, through the dataset
  fingerprint, so a code change that moves trajectories stops serving
  entries trained before it.

Loading a cache entry is exactly resuming a finished run: ``fit`` restores
the checkpoint, observes the run is complete and returns the stored history
without training — so a cache hit and a fresh run are indistinguishable to
callers.  Writes are atomic (checkpoints use tmp-file + ``os.replace``), so
concurrent sweep workers never observe a torn entry.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.dataset.cache import config_fingerprint, default_cache_dir
from repro.experiments.common import ExperimentScale
from repro.fleet.config import SINGLE_UE, FleetConfig
from repro.split.config import ExperimentConfig


def trained_model_fingerprint(
    scale: ExperimentScale,
    config: ExperimentConfig,
    *,
    fleet_config: FleetConfig = SINGLE_UE,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Stable hash of everything determining a training run's trajectory."""
    fleet = asdict(fleet_config)
    del fleet["backend"]
    payload = json.dumps(
        {
            "dataset": config_fingerprint(scale.dataset_config()),
            "scale": asdict(scale),
            "model": asdict(config.model),
            "training": asdict(config.training),
            "channel": asdict(config.channel),
            "fleet": fleet,
            "extra": dict(extra) if extra else {},
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_model_cache_dir() -> Path:
    """Default trained-model cache directory (inside the library cache)."""
    return default_cache_dir() / "models"


def trained_model_path(
    fingerprint: str, cache_dir: str | os.PathLike | None = None
) -> Path:
    """Cache-archive path for a fingerprint (``exists()`` == cached)."""
    root = Path(cache_dir) if cache_dir is not None else default_model_cache_dir()
    return root / f"model-{fingerprint}.npz"
