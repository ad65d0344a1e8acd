"""Tests for recurrent layers (LSTM, GRU, SimpleRNN)."""
import numpy as np
import pytest

from repro.nn import GRU, LSTM, SimpleRNN

from tests.gradcheck import check_layer_gradients


@pytest.fixture()
def gen():
    return np.random.default_rng(9)


ALL_CLASSES = [SimpleRNN, GRU, LSTM]


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_output_shape_last_state(cls, gen):
    layer = cls(input_size=5, hidden_size=7, seed=0)
    output = layer.forward(gen.normal(size=(3, 4, 5)))
    assert output.shape == (3, 7)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_gradients_match_numerical(cls, gen):
    layer = cls(input_size=3, hidden_size=4, seed=2)
    inputs = gen.normal(size=(2, 3, 3))
    check_layer_gradients(layer, inputs, (2, 4), gen, atol=1e-6)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_hidden_state_bounded_by_tanh(cls, gen):
    layer = cls(input_size=4, hidden_size=6, seed=0)
    output = layer.forward(10.0 * gen.normal(size=(5, 8, 4)))
    assert np.all(np.abs(output) <= 1.0 + 1e-9)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_longer_history_changes_output(cls, gen):
    layer = cls(input_size=2, hidden_size=3, seed=4)
    short = gen.normal(size=(1, 2, 2))
    long = np.concatenate([gen.normal(size=(1, 3, 2)), short], axis=1)
    output_short = layer.forward(short)
    output_long = layer.forward(long)
    assert not np.allclose(output_short, output_long)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_invalid_input_shapes_raise(cls, gen):
    layer = cls(input_size=4, hidden_size=3, seed=0)
    with pytest.raises(ValueError):
        layer.forward(gen.normal(size=(3, 4)))
    with pytest.raises(ValueError):
        layer.forward(gen.normal(size=(3, 4, 5)))


def test_lstm_forget_bias_initialization():
    layer = LSTM(input_size=2, hidden_size=3, seed=0)
    bias = layer.bias.value
    assert np.allclose(bias[3:6], 1.0)
    assert np.allclose(bias[:3], 0.0) and np.allclose(bias[6:], 0.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LSTM(input_size=0, hidden_size=4)
    with pytest.raises(ValueError):
        GRU(input_size=4, hidden_size=0)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_deterministic_given_seed(cls, gen):
    inputs = gen.normal(size=(2, 3, 4))
    a = cls(input_size=4, hidden_size=5, seed=42).forward(inputs)
    b = cls(input_size=4, hidden_size=5, seed=42).forward(inputs)
    assert np.allclose(a, b)
