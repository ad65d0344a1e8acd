"""Tests for the Dense layer."""
import numpy as np
import pytest

from repro.nn import Dense, MeanSquaredError

from tests.gradcheck import check_layer_gradients


@pytest.fixture()
def gen():
    return np.random.default_rng(3)


def test_output_shape(gen):
    layer = Dense(5, 3, seed=0)
    output = layer.forward(gen.normal(size=(7, 5)))
    assert output.shape == (7, 3)


def test_preserves_leading_axes(gen):
    layer = Dense(5, 3, seed=0)
    output = layer.forward(gen.normal(size=(2, 4, 5)))
    assert output.shape == (2, 4, 3)


def test_forward_matches_manual_computation(gen):
    layer = Dense(4, 2, seed=1)
    inputs = gen.normal(size=(3, 4))
    expected = inputs @ layer.weight.value + layer.bias.value
    assert np.allclose(layer.forward(inputs), expected)


def test_no_bias_option(gen):
    layer = Dense(4, 2, use_bias=False, seed=1)
    assert layer.bias is None
    inputs = gen.normal(size=(3, 4))
    assert np.allclose(layer.forward(inputs), inputs @ layer.weight.value)


def test_gradients_match_numerical(gen):
    layer = Dense(4, 3, seed=2)
    inputs = gen.normal(size=(5, 4))
    check_layer_gradients(layer, inputs, (5, 3), gen)


def test_gradients_match_numerical_3d_input(gen):
    layer = Dense(3, 2, seed=2)
    inputs = gen.normal(size=(2, 4, 3))
    check_layer_gradients(layer, inputs, (2, 4, 2), gen)


def test_gradient_accumulation_across_calls(gen):
    layer = Dense(3, 2, seed=0)
    loss = MeanSquaredError()
    inputs = gen.normal(size=(4, 3))
    targets = gen.normal(size=(4, 2))

    loss.forward(layer.forward(inputs), targets)
    layer.backward(loss.backward())
    first = layer.weight.grad.copy()

    loss.forward(layer.forward(inputs), targets)
    layer.backward(loss.backward())
    assert np.allclose(layer.weight.grad, 2.0 * first)


def test_invalid_input_dimension_raises(gen):
    layer = Dense(4, 2, seed=0)
    with pytest.raises(ValueError):
        layer.forward(gen.normal(size=(3, 5)))


def test_backward_before_forward_raises():
    layer = Dense(4, 2, seed=0)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((3, 2)))


def test_invalid_sizes_raise():
    with pytest.raises(ValueError):
        Dense(0, 3)
    with pytest.raises(ValueError):
        Dense(3, -1)


def test_num_parameters():
    def count(layer):
        return sum(p.value.size for p in layer.parameters())

    assert count(Dense(4, 3, seed=0)) == 4 * 3 + 3
    assert count(Dense(4, 3, use_bias=False, seed=0)) == 12


def test_state_dict_roundtrip(gen):
    layer = Dense(4, 3, seed=0)
    other = Dense(4, 3, seed=99)
    other.load_state_dict(layer.state_dict())
    inputs = gen.normal(size=(2, 4))
    assert np.allclose(layer.forward(inputs), other.forward(inputs))


def test_load_state_dict_shape_mismatch():
    layer = Dense(4, 3, seed=0)
    bad_state = {"weight": np.zeros((2, 2)), "bias": np.zeros(3)}
    with pytest.raises(ValueError):
        layer.load_state_dict(bad_state)


def test_load_state_dict_missing_key():
    layer = Dense(4, 3, seed=0)
    with pytest.raises(KeyError):
        layer.load_state_dict({"weight": np.zeros((4, 3))})
