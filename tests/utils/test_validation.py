"""The shared config checks of :mod:`repro.utils.validation`."""
import numpy as np
import pytest

from repro.utils.validation import positive


@pytest.mark.parametrize("value", [4, 1e-3, np.float64(2.5), np.int64(1)])
def test_positive_accepts_real_numbers_above_zero(value):
    positive("x", value)


@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("nan"), float("-inf")])
def test_positive_rejects_non_positive_values_and_nan(value):
    with pytest.raises(ValueError, match="x must be strictly positive"):
        positive("x", value)


@pytest.mark.parametrize("value", [True, "1.0", None, 1j])
def test_positive_rejects_non_numbers(value):
    with pytest.raises(TypeError, match="x must be a real number"):
        positive("x", value)

