"""Tests for pooling layers (the paper's compression knob)."""
import numpy as np
import pytest

from repro.nn import AveragePool2D
from repro.nn.layers.pooling import avgpool2d_backward_reference


@pytest.fixture()
def gen():
    return np.random.default_rng(5)


def test_average_pool_exact_values():
    layer = AveragePool2D(2)
    inputs = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    output = layer.forward(inputs)
    assert output.shape == (1, 1, 2, 2)
    assert output[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    assert output[0, 0, 1, 1] == pytest.approx((10 + 11 + 14 + 15) / 4)


def test_one_pixel_pooling_is_global_mean(gen):
    """40x40 pooling of a 40x40 image = the paper's one-pixel configuration."""
    layer = AveragePool2D(8)
    inputs = gen.normal(size=(3, 1, 8, 8))
    output = layer.forward(inputs)
    assert output.shape == (3, 1, 1, 1)
    assert np.allclose(output[:, 0, 0, 0], inputs.mean(axis=(2, 3))[:, 0])


def test_average_pool_rejects_indivisible_input(gen):
    layer = AveragePool2D(3)
    with pytest.raises(ValueError):
        layer.forward(gen.normal(size=(1, 1, 8, 8)))


def test_average_pool_backward_distributes_uniformly():
    """The loop reference of the pooling backward, which the UE network's
    plan is checked against (``tests/fleet/member_loop_oracle.py``)."""
    grad = avgpool2d_backward_reference(np.ones((1, 1, 2, 2)), (1, 1, 4, 4), (2, 2))
    assert np.allclose(grad, 0.25)


def test_average_pool_gradients_match_numerical(gen, gradcheck):
    """The reference backward is the gradient of the vectorized forward."""
    layer = AveragePool2D(2)
    inputs = gen.normal(size=(2, 2, 4, 4))
    weights = gen.normal(size=(2, 2, 2, 2))

    def loss_of(values):
        return float(np.sum(weights * layer.forward(values)))

    numerical = gradcheck.input_gradient(loss_of, inputs)
    analytic = avgpool2d_backward_reference(weights, inputs.shape, (2, 2))
    assert np.max(np.abs(numerical - analytic)) < 1e-6


def test_average_pool_rectangular_region(gen):
    layer = AveragePool2D((2, 4))
    output = layer.forward(gen.normal(size=(1, 1, 8, 8)))
    assert output.shape == (1, 1, 4, 2)


def test_pool_size_validation():
    with pytest.raises(ValueError):
        AveragePool2D(0)
    with pytest.raises(ValueError):
        AveragePool2D((2, -1))


def test_output_shape_helper():
    layer = AveragePool2D((4, 4))
    assert layer.output_shape(40, 40) == (10, 10)
    with pytest.raises(ValueError):
        layer.output_shape(41, 40)
