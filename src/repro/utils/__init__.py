"""Shared utilities: unit conversions, seeding, logging and worker counts."""
from repro.utils.logging import get_logger
from repro.utils.seeding import (
    as_generator,
    capture_generator_state,
    restore_generator_state,
    spawn_generators,
)
from repro.utils.units import (
    SPEED_OF_LIGHT,
    THERMAL_NOISE_DBM_PER_HZ,
    dbm_to_milliwatts,
    frequency_to_wavelength,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "THERMAL_NOISE_DBM_PER_HZ",
    "as_generator",
    "capture_generator_state",
    "dbm_to_milliwatts",
    "frequency_to_wavelength",
    "get_logger",
    "restore_generator_state",
    "spawn_generators",
]
