"""Tests for the activations: the ReLU layer and the sigmoid kernel."""
import numpy as np
import pytest

from repro.nn import ReLU
from repro.nn.layers.activations import stable_sigmoid

from tests.gradcheck import check_layer_gradients


@pytest.fixture()
def gen():
    return np.random.default_rng(7)


def test_relu_forward():
    layer = ReLU()
    output = layer.forward(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
    assert np.allclose(output, [0.0, 0.0, 0.0, 0.5, 2.0])


def test_relu_backward_masks_negative():
    layer = ReLU()
    layer.forward(np.array([-1.0, 1.0]))
    grad = layer.backward(np.array([5.0, 5.0]))
    assert np.allclose(grad, [0.0, 5.0])


def test_sigmoid_range_and_midpoint():
    output = stable_sigmoid(np.array([-100.0, 0.0, 100.0]))
    assert output[0] == pytest.approx(0.0, abs=1e-30)
    assert output[1] == pytest.approx(0.5)
    assert output[2] == pytest.approx(1.0)


def test_stable_sigmoid_no_overflow():
    values = stable_sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def masked_sigmoid(x):
    """The two-branch masked sigmoid the branch-free form must equal."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


@pytest.mark.parametrize("shape", [(32, 16), (128, 16), (128, 1, 20, 20)])
def test_stable_sigmoid_bitwise_equals_masked_form(gen, shape):
    inputs = gen.normal(scale=6.0, size=shape)
    flat = inputs.reshape(-1)
    flat[:6] = [0.0, -0.0, 800.0, -800.0, 36.0, -36.0]
    expected = masked_sigmoid(inputs)
    actual = stable_sigmoid(inputs)
    assert actual.dtype == np.float64 and actual.shape == shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("cls", [ReLU])
def test_gradients_match_numerical(cls, gen):
    layer = cls()
    # Avoid the ReLU kink at exactly zero by shifting inputs away from it.
    inputs = gen.normal(size=(4, 6)) + 0.05
    check_layer_gradients(layer, inputs, (4, 6), gen, atol=1e-5)


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        ReLU().backward(np.ones(3))
