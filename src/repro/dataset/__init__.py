"""Synthetic dataset generation, sequence building and train/val splitting."""
from repro.dataset.cache import (
    TRAJECTORY_VERSION,
    config_fingerprint,
    dataset_cache_path,
    default_cache_dir,
    get_or_generate,
    load_cached_dataset,
    load_dataset,
    save_dataset,
)
from repro.dataset.generator import (
    PAPER_NUM_SAMPLES,
    PAPER_TRAIN_BOUNDARY,
    DatasetConfig,
    DepthPowerDataset,
    MmWaveDepthDatasetGenerator,
    generate_small_dataset,
)
from repro.dataset.sequences import (
    PAPER_HORIZON_S,
    PAPER_SEQUENCE_LENGTH,
    SequenceDataset,
    build_sequences,
    horizon_in_frames,
)
from repro.dataset.splits import (
    PAPER_TRAIN_FRACTION,
    TrainValidationSplit,
    temporal_split,
)

__all__ = [
    "DatasetConfig",
    "DepthPowerDataset",
    "MmWaveDepthDatasetGenerator",
    "PAPER_HORIZON_S",
    "PAPER_NUM_SAMPLES",
    "PAPER_SEQUENCE_LENGTH",
    "PAPER_TRAIN_BOUNDARY",
    "PAPER_TRAIN_FRACTION",
    "SequenceDataset",
    "TRAJECTORY_VERSION",
    "TrainValidationSplit",
    "build_sequences",
    "config_fingerprint",
    "dataset_cache_path",
    "default_cache_dir",
    "generate_small_dataset",
    "get_or_generate",
    "horizon_in_frames",
    "load_cached_dataset",
    "load_dataset",
    "save_dataset",
    "temporal_split",
]
