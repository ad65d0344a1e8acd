"""Tests for the Flatten layer."""
import numpy as np
import pytest

from repro.nn import Flatten


@pytest.fixture()
def gen():
    return np.random.default_rng(13)


def test_flatten_shape_and_roundtrip(gen):
    layer = Flatten()
    inputs = gen.normal(size=(3, 2, 4, 5))
    output = layer.forward(inputs)
    assert output.shape == (3, 40)
    grad = layer.backward(output)
    assert grad.shape == inputs.shape
    assert np.allclose(grad, inputs)


def test_flatten_rejects_scalar_batch(gen):
    with pytest.raises(ValueError):
        Flatten().forward(np.array([1.0, 2.0]).reshape(2))


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        Flatten().backward(np.ones((2, 2)))
