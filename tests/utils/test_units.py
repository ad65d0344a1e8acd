"""Tests for unit conversions and constants."""
import numpy as np
import pytest

from repro.utils import units


def test_dbm_milliwatts_roundtrip():
    values = np.array([-174.0, 7.5, 40.0])
    assert np.allclose(10.0 * np.log10(units.dbm_to_milliwatts(values)), values)


def test_thermal_noise_constant_close_to_minus_174():
    assert units.THERMAL_NOISE_DBM_PER_HZ == pytest.approx(-174.0, abs=0.2)


def test_wavelength_at_60ghz():
    wavelength = units.frequency_to_wavelength(60.48e9)
    assert wavelength == pytest.approx(4.957e-3, rel=1e-3)
    with pytest.raises(ValueError):
        units.frequency_to_wavelength(0.0)
