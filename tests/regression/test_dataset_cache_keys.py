"""Pinned dataset-cache keys of the registered scales and sweep scenarios.

A dataset-cache key is a hash of the :class:`DatasetConfig` that generates
a dataset (:func:`repro.dataset.cache.config_fingerprint`).  A change to how
the config stores or checks its values must leave these keys alone, or every
cached dataset silently becomes a miss.  They move only with
``TRAJECTORY_VERSION`` or a preset's physics, which are part of the key.
"""
import pytest

from repro.dataset import config_fingerprint
from repro.experiments.common import scale_from_name

PINNED_SCALE_KEYS = {
    "smoke": "d6235ff2fe4fb1e8",
    "fast": "b28ca413c935c375",
    "paper": "c05c25c106a95e44",
}

#: The first cell of each scenario of a seed-0 sweep-cold benchmark op.
PINNED_SCENARIO_KEYS = {
    ("paper_baseline", 0): "b28ca413c935c375",
    ("dense_crowd", 6): "f66272077bb84d13",
    ("long_corridor", 12): "87d17688ae1c0370",
}


@pytest.mark.parametrize("scale_name", sorted(PINNED_SCALE_KEYS))
def test_scale_dataset_keys_are_pinned(scale_name):
    config = scale_from_name(scale_name).dataset_config()
    assert config_fingerprint(config) == PINNED_SCALE_KEYS[scale_name]


@pytest.mark.parametrize("scenario, seed", sorted(PINNED_SCENARIO_KEYS))
def test_sweep_scenario_dataset_keys_are_pinned(scenario, seed):
    scale = scale_from_name("fast").with_scenario(scenario).with_seed(seed)
    key = config_fingerprint(scale.dataset_config())
    assert key == PINNED_SCENARIO_KEYS[(scenario, seed)]
