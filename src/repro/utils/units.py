"""Unit conversions and physical constants used across the library.

The mmWave propagation and wireless-channel modules work in decibel units
(dB, dBm) while the numerical models need linear quantities (watts, ratios).
These helpers keep the conversions explicit and in one place.
"""
from __future__ import annotations

import numpy as np

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Boltzmann constant [J/K].
BOLTZMANN_CONSTANT = 1.380_649e-23

#: Reference temperature for thermal-noise computations [K].
REFERENCE_TEMPERATURE = 290.0

#: Thermal noise power spectral density at 290 K [dBm/Hz] (approx. -174).
THERMAL_NOISE_DBM_PER_HZ = 10.0 * np.log10(
    BOLTZMANN_CONSTANT * REFERENCE_TEMPERATURE * 1e3
)


def dbm_to_milliwatts(value_dbm):
    """Convert a power level in dBm to milliwatts."""
    return np.power(10.0, np.asarray(value_dbm, dtype=float) / 10.0)


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Return the wavelength in metres for a carrier frequency in hertz."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be strictly positive")
    return SPEED_OF_LIGHT / frequency_hz
