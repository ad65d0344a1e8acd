"""Named, frozen scenario presets and the registry that serves them.

Importing this package registers the built-in presets (``paper_baseline``,
``dense_crowd``, ``sparse_traffic``, ``fast_walkers``, ``long_corridor``,
``wide_fov_camera``); :func:`register` adds custom ones.
"""
from repro.scenarios.base import Scenario, scenario_fingerprint
from repro.scenarios.placement import (
    DEFAULT_JITTER_FRACTION,
    fleet_channel_params,
    fleet_placements,
)
from repro.scenarios.presets import (
    DEFAULT_SCENARIOS,
    DENSE_CROWD,
    FAST_WALKERS,
    LONG_CORRIDOR,
    PAPER_BASELINE,
    SPARSE_TRAFFIC,
    WIDE_FOV_CAMERA,
)
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)

__all__ = [
    "DEFAULT_JITTER_FRACTION",
    "DEFAULT_SCENARIOS",
    "DENSE_CROWD",
    "FAST_WALKERS",
    "LONG_CORRIDOR",
    "PAPER_BASELINE",
    "SPARSE_TRAFFIC",
    "Scenario",
    "WIDE_FOV_CAMERA",
    "all_scenarios",
    "fleet_channel_params",
    "fleet_placements",
    "get_scenario",
    "register",
    "scenario_fingerprint",
    "scenario_names",
]
