"""Tests for average pooling (the paper's compression knob)."""
import numpy as np
import pytest

from repro.nn import average_pool

from tests.nn.kernel_oracles import avgpool2d_backward_reference


@pytest.fixture()
def gen():
    return np.random.default_rng(5)


def test_average_pool_exact_values():
    inputs = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    output = average_pool(inputs, 2)
    assert output.shape == (1, 1, 2, 2)
    assert output[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
    assert output[0, 0, 1, 1] == pytest.approx((10 + 11 + 14 + 15) / 4)


def test_one_pixel_pooling_is_global_mean(gen):
    """40x40 pooling of a 40x40 image = the paper's one-pixel configuration."""
    inputs = gen.normal(size=(3, 1, 8, 8))
    output = average_pool(inputs, 8)
    assert output.shape == (3, 1, 1, 1)
    assert np.allclose(output[:, 0, 0, 0], inputs.mean(axis=(2, 3))[:, 0])


def test_average_pool_rejects_indivisible_input(gen):
    with pytest.raises(ValueError):
        average_pool(gen.normal(size=(1, 1, 8, 8)), 3)


def test_average_pool_backward_distributes_uniformly():
    """The loop reference of the pooling backward, which the UE network's
    plan is checked against (``tests/fleet/member_loop_oracle.py``)."""
    grad = avgpool2d_backward_reference(np.ones((1, 1, 2, 2)), (1, 1, 4, 4), (2, 2))
    assert np.allclose(grad, 0.25)


def test_average_pool_gradients_match_numerical(gen, gradcheck):
    """The reference backward is the gradient of the vectorized forward."""
    inputs = gen.normal(size=(2, 2, 4, 4))
    weights = gen.normal(size=(2, 2, 2, 2))

    def loss_of(values):
        return float(np.sum(weights * average_pool(values, 2)))

    numerical = gradcheck.input_gradient(loss_of, inputs)
    analytic = avgpool2d_backward_reference(weights, inputs.shape, (2, 2))
    assert np.max(np.abs(numerical - analytic)) < 1e-6


def test_average_pool_rectangular_region(gen):
    output = average_pool(gen.normal(size=(1, 1, 8, 8)), (2, 4))
    assert output.shape == (1, 1, 4, 2)


def test_pool_size_validation(gen):
    inputs = gen.normal(size=(1, 1, 4, 4))
    with pytest.raises(ValueError):
        average_pool(inputs, 0)
    with pytest.raises(ValueError):
        average_pool(inputs, (2, -1))
    with pytest.raises(ValueError):
        average_pool(inputs[0], 2)


def test_output_shape_helper():
    assert average_pool(np.zeros((1, 1, 40, 40)), (4, 4)).shape == (1, 1, 10, 10)
    with pytest.raises(ValueError):
        average_pool(np.zeros((1, 1, 41, 40)), (4, 4))
