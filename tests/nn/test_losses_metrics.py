"""Tests for loss functions and evaluation metrics."""
import numpy as np
import pytest

from repro.nn import MeanSquaredError
from repro.nn.metrics import mean_squared_error, root_mean_squared_error


@pytest.fixture()
def gen():
    return np.random.default_rng(31)


def test_mse_value_and_gradient(gen):
    loss = MeanSquaredError()
    predictions = np.array([[1.0], [2.0]])
    targets = np.array([[0.0], [4.0]])
    value = loss.forward(predictions, targets)
    assert value == pytest.approx((1.0 + 4.0) / 2.0)
    grad = loss.backward()
    assert np.allclose(grad, 2.0 * (predictions - targets) / 2.0)


def test_mse_zero_for_perfect_prediction(gen):
    loss = MeanSquaredError()
    values = gen.normal(size=(5, 2))
    assert loss.forward(values, values) == pytest.approx(0.0)


def test_loss_shape_mismatch_raises():
    with pytest.raises(ValueError):
        MeanSquaredError().forward(np.zeros((2, 1)), np.zeros((3, 1)))


def test_loss_empty_arrays_raise():
    with pytest.raises(ValueError):
        MeanSquaredError().forward(np.zeros((0,)), np.zeros((0,)))


def test_loss_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        MeanSquaredError().backward()


def test_mse_gradient_numerical(gen):
    loss = MeanSquaredError()
    predictions = gen.normal(size=(4, 2))
    targets = gen.normal(size=(4, 2))
    loss.forward(predictions, targets)
    analytic = loss.backward()
    epsilon = 1e-6
    index = (1, 1)
    perturbed = predictions.copy()
    perturbed[index] += epsilon
    plus = loss.forward(perturbed, targets)
    perturbed[index] -= 2 * epsilon
    minus = loss.forward(perturbed, targets)
    assert analytic[index] == pytest.approx((plus - minus) / (2 * epsilon), rel=1e-4)


# -- metrics -------------------------------------------------------------------------


def test_rmse_is_sqrt_of_mse(gen):
    predictions = gen.normal(size=20)
    targets = gen.normal(size=20)
    assert root_mean_squared_error(predictions, targets) == pytest.approx(
        np.sqrt(mean_squared_error(predictions, targets))
    )


def test_rmse_known_value():
    assert root_mean_squared_error([1.0, 3.0], [0.0, 0.0]) == pytest.approx(
        np.sqrt(5.0)
    )


def test_metric_shape_mismatch():
    with pytest.raises(ValueError):
        root_mean_squared_error([1.0], [1.0, 2.0])


def test_metric_empty_raises():
    with pytest.raises(ValueError):
        root_mean_squared_error([], [])
