"""Edge cases of the vectorized conv / pooling / recurrent kernels.

Covers the geometries the vectorized rewrites are most likely to get wrong:
stride > 1, even kernels under 'same' padding (rejected), empty minibatches,
single-channel inputs and non-square images.  Convolutions run as the
program runs them: the stacked kernels at one member.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.conv import Conv2D, conv2d_forward_reference
from repro.nn.layers.pooling import average_pool
from repro.nn.layers.pooling import avgpool2d_forward_reference
from repro.nn.layers.recurrent import GRU, LSTM, SimpleRNN

from tests.nn.one_member_conv import conv

RECURRENT_CLASSES = [SimpleRNN, GRU, LSTM]


@pytest.fixture()
def gen():
    return np.random.default_rng(77)


# -- stride > 1 --------------------------------------------------------------


@pytest.mark.parametrize("stride", [2, 3, (2, 3)])
def test_conv_stride_geometry_and_gradients(gen, gradcheck, stride):
    layer = conv(1, 2, 3, stride=stride, padding=1, seed=5)
    inputs = gen.normal(size=(2, 1, 7, 7))
    output = layer.forward(inputs)
    sh, sw = layer.stride
    expected = (2, 2, (7 + 2 - 3) // sh + 1, (7 + 2 - 3) // sw + 1)
    assert output.shape == expected
    gradcheck.layer(layer, inputs, expected, gen, atol=1e-6)


def test_conv_stride_larger_than_kernel(gen):
    layer = conv(1, 1, 2, stride=4, padding=0, seed=5)
    inputs = gen.normal(size=(1, 1, 10, 10))
    vectorized = layer.forward(inputs)
    reference = conv2d_forward_reference(
        inputs, layer.weight.value, layer.bias.value, layer.stride, layer.padding
    )
    assert vectorized.shape == (1, 1, 3, 3)
    assert np.allclose(vectorized, reference)


# -- even kernels under 'same' padding are rejected ---------------------------


@pytest.mark.parametrize("kernel", [2, 4, (3, 2), (2, 3)])
def test_even_kernel_same_padding_rejected(kernel):
    with pytest.raises(ValueError, match="odd kernel"):
        Conv2D(1, 1, kernel, padding="same")


def test_even_kernel_allowed_with_explicit_padding(gen):
    layer = conv(1, 1, 2, padding=0, seed=0)
    assert layer.forward(gen.normal(size=(1, 1, 4, 4))).shape == (1, 1, 3, 3)


# -- empty batch --------------------------------------------------------------


def test_conv_empty_batch_roundtrip():
    layer = conv(2, 3, 3, padding=1, seed=0)
    empty = np.zeros((0, 2, 6, 6))
    output = layer.forward(empty)
    assert output.shape == (0, 3, 6, 6)
    grad = layer.backward(np.zeros(output.shape))
    assert grad.shape == empty.shape
    assert np.allclose(layer.weight.grad, 0.0)


@pytest.mark.parametrize(
    "pool", [lambda x: average_pool(x, 2), lambda x: average_pool(x, (2, 2))]
)
def test_pooling_empty_batch_roundtrip(pool):
    empty = np.zeros((0, 1, 4, 4))
    output = pool(empty)
    assert output.shape == (0, 1, 2, 2)


@pytest.mark.parametrize("cls", RECURRENT_CLASSES)
def test_recurrent_empty_batch_roundtrip(cls):
    layer = cls(input_size=3, hidden_size=4, seed=0)
    empty = np.zeros((0, 5, 3))
    output = layer.forward(empty)
    assert output.shape == (0, 4)
    grad = layer.backward(np.zeros(output.shape))
    assert grad.shape == empty.shape
    assert np.allclose(layer.w_x.grad, 0.0)


# -- single channel -----------------------------------------------------------


def test_single_channel_conv_gradients(gen, gradcheck):
    layer = conv(1, 1, 3, padding=1, seed=9)
    inputs = gen.normal(size=(2, 1, 5, 5))
    gradcheck.layer(layer, inputs, (2, 1, 5, 5), gen, atol=1e-6)


def test_single_channel_pooling(gen):
    inputs = gen.normal(size=(2, 1, 6, 6))
    assert average_pool(inputs, 3).shape == (2, 1, 2, 2)
    assert average_pool(inputs, 6).shape == (2, 1, 1, 1)


# -- non-square inputs --------------------------------------------------------


def test_conv_non_square_input_and_gradients(gen, gradcheck):
    layer = conv(2, 2, 3, padding=1, seed=4)
    inputs = gen.normal(size=(2, 2, 3, 9))
    assert layer.forward(inputs).shape == (2, 2, 3, 9)
    gradcheck.layer(layer, inputs, (2, 2, 3, 9), gen, atol=1e-6)


def test_pooling_non_square_input(gen):
    inputs = gen.normal(size=(1, 2, 4, 10))
    output = average_pool(inputs, (2, 5))
    assert output.shape == (1, 2, 2, 2)
    assert np.allclose(output, avgpool2d_forward_reference(inputs, (2, 5)))


@pytest.mark.parametrize("cls", RECURRENT_CLASSES)
def test_recurrent_single_step_sequence(cls, gen, gradcheck):
    """sequence_length=1 degenerates the recurrence to a feedforward cell."""
    layer = cls(input_size=4, hidden_size=3, seed=1)
    inputs = gen.normal(size=(3, 1, 4))
    assert layer.forward(inputs).shape == (3, 3)
    gradcheck.layer(layer, inputs, (3, 3), gen, atol=1e-6)
