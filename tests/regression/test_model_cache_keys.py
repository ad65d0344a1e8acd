"""Pinned trained-model cache keys of the registered scales and schemes.

A model-cache key is a hash of every configuration that determines a
training run (:func:`repro.experiments.model_cache.trained_model_fingerprint`).
A change to how the configurations store or serialize their values must
leave these keys alone, or every cached model silently becomes a miss.
They move only with ``TRAJECTORY_VERSION`` or ``CHECKPOINT_VERSION``,
which are part of the key.
"""
import pytest

from repro.experiments.common import scale_from_name, scheme_model_configs
from repro.experiments.pipeline import ExperimentPipeline

PINNED_KEYS = {
    "smoke": {
        "base": "48675caacf70e7c7",
        "img+rf-1pixel": "48675caacf70e7c7",
        "img+rf-4x4": "4527edf0876c6394",
        "img-only-1pixel": "f8590f372e1c5eb3",
        "img-only-4x4": "4390d09e32ba422c",
        "rf-only": "4346b9445e158be7",
    },
    "fast": {
        "base": "9b80c32a5851bf5e",
        "img+rf-1pixel": "9b80c32a5851bf5e",
        "img+rf-4x4": "4b60f6e3b63106b2",
        "img-only-1pixel": "42b7218d5eec2c86",
        "img-only-4x4": "d5fa7ab62ea413b0",
        "rf-only": "ffeff61fd72a0d5c",
    },
    "paper": {
        "base": "bce4dd84f27029aa",
        "img+rf-1pixel": "bce4dd84f27029aa",
        "img+rf-4x4": "9037c057f537a421",
        "img-only-1pixel": "a1bc5f24e21b467b",
        "img-only-4x4": "4be51e841122dc08",
        "rf-only": "a91eb8d8172a6667",
    },
}


@pytest.mark.parametrize("scale_name", sorted(PINNED_KEYS))
def test_model_cache_keys_are_pinned(scale_name):
    scale = scale_from_name(scale_name)
    pipeline = ExperimentPipeline(scale)
    configs = {"base": scale.base_model_config(), **scheme_model_configs(scale)}
    keys = {
        name: pipeline.job_fingerprint(pipeline.split_job(name, config))
        for name, config in configs.items()
    }
    assert keys == PINNED_KEYS[scale_name]
