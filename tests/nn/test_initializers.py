"""Tests for weight initializers."""
import numpy as np
import pytest

from repro.nn import initializers


@pytest.fixture()
def gen():
    return np.random.default_rng(0)


def test_xavier_uniform_limit(gen):
    fan_in, fan_out = 30, 70
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    values = initializers.xavier_uniform((fan_in, fan_out), gen)
    assert values.shape == (fan_in, fan_out)
    assert np.all(np.abs(values) <= limit + 1e-12)


def test_he_initializers_scale_with_fan_in(gen):
    small = initializers.he_uniform((10, 50), gen)
    large = initializers.he_uniform((1000, 50), gen)
    assert small.std() > large.std()


def test_he_uniform_bound(gen):
    fan_in = 40
    limit = np.sqrt(6.0 / fan_in)
    values = initializers.he_uniform((fan_in, 10), gen)
    assert np.all(np.abs(values) <= limit + 1e-12)


def test_conv_kernel_fan_computation(gen):
    # Conv kernels are (out, in, kh, kw); fan_in = in * kh * kw.
    values = initializers.he_uniform((16, 4, 3, 3), gen)
    expected_std = np.sqrt(2.0 / (4 * 9))
    assert abs(values.std() - expected_std) < 0.15 * expected_std


def test_orthogonal_produces_orthonormal_rows(gen):
    matrix = initializers.orthogonal((8, 8), gen)
    product = matrix @ matrix.T
    assert np.allclose(product, np.eye(8), atol=1e-10)


def test_orthogonal_non_square(gen):
    matrix = initializers.orthogonal((4, 10), gen)
    assert matrix.shape == (4, 10)
    assert np.allclose(matrix @ matrix.T, np.eye(4), atol=1e-10)


def test_orthogonal_rejects_1d(gen):
    with pytest.raises(ValueError):
        initializers.orthogonal((5,), gen)

