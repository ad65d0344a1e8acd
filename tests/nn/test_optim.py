"""Tests for the Adam optimizer and the shared optimizer base."""
import numpy as np
import pytest

from repro.nn import Adam, Dense, MeanSquaredError
from repro.nn.layers.base import Parameter


def quadratic_problem(optimizer_factory, steps=200):
    """Minimize ||x - target||^2 with a single parameter vector."""
    target = np.array([3.0, -2.0, 0.5])
    param = Parameter("x", np.zeros(3))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        param.grad += 2.0 * (param.value - target)
        optimizer.step()
    return param.value, target


def test_adam_converges_on_quadratic():
    value, target = quadratic_problem(
        lambda p: Adam(p, learning_rate=0.1), steps=500
    )
    assert np.allclose(value, target, atol=1e-3)


def test_adam_first_step_size_close_to_learning_rate():
    # With bias correction, the first Adam step is ~learning_rate in magnitude.
    param = Parameter("w", np.array([0.0]))
    optimizer = Adam([param], learning_rate=0.01)
    param.grad[:] = [123.0]
    optimizer.step()
    assert abs(param.value[0] + 0.01) < 1e-6


def test_adam_defaults_match_paper():
    param = Parameter("w", np.zeros(1))
    optimizer = Adam([param])
    assert optimizer.learning_rate == pytest.approx(0.001)
    assert optimizer.beta1 == pytest.approx(0.9)
    assert optimizer.beta2 == pytest.approx(0.999)


def test_zero_grad_resets():
    param = Parameter("w", np.zeros(3))
    optimizer = Adam([param], learning_rate=0.1)
    param.grad[:] = 1.0
    optimizer.zero_grad()
    assert np.all(param.grad == 0.0)


def test_gradient_clipping_scales_down():
    param = Parameter("w", np.zeros(4))
    optimizer = Adam([param], learning_rate=0.1)
    param.grad[:] = 10.0
    norm_before = float(np.linalg.norm(param.grad))
    returned = optimizer.clip_gradients(1.0)
    assert returned == pytest.approx(norm_before)
    assert np.linalg.norm(param.grad) == pytest.approx(1.0)


def test_gradient_clipping_no_op_below_threshold():
    param = Parameter("w", np.zeros(2))
    optimizer = Adam([param], learning_rate=0.1)
    param.grad[:] = 0.1
    optimizer.clip_gradients(10.0)
    assert np.allclose(param.grad, 0.1)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        Adam([], learning_rate=0.1)
    param = Parameter("w", np.zeros(1))
    with pytest.raises(ValueError):
        Adam([param], learning_rate=0.0)
    with pytest.raises(ValueError):
        Adam([param], beta1=1.0)


def test_adam_trains_a_small_network():
    rng = np.random.default_rng(0)
    model_inputs = rng.normal(size=(64, 3))
    true_weights = np.array([[1.0], [-2.0], [0.5]])
    targets = model_inputs @ true_weights

    layer = Dense(3, 1, seed=1)
    optimizer = Adam(layer.parameters(), learning_rate=0.05)
    loss = MeanSquaredError()
    initial = loss.forward(layer.forward(model_inputs), targets)
    for _ in range(300):
        optimizer.zero_grad()
        value = loss.forward(layer.forward(model_inputs), targets)
        layer.backward(loss.backward())
        optimizer.step()
    assert value < 1e-3 < initial
