"""Vectorized kernels vs. the loop oracles of ``tests/nn/kernel_oracles.py``.

The conv / pooling / recurrent hot paths are lowered to strided copies and
batched GEMMs; the naive loop implementations they replaced are the
``*_reference`` oracles.  These tests pin the vectorized paths to the
references — forward outputs and every gradient — to well below the 1e-6
acceptance tolerance, and additionally gradient-check the vectorized layers
against central differences through the shared ``gradcheck`` fixture.
Convolutions run as the program runs them: the stacked kernels at one member
(:class:`~tests.nn.one_member_conv.OneMemberConv`).  The pooling backward
lives in the UE network's plan and is checked there
(``tests/split/test_ue_network.py``).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.pooling import average_pool
from repro.nn.layers.recurrent import GRU, LSTM, SimpleRNN
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.ue import UEClient

from tests.nn.kernel_oracles import (
    avgpool2d_forward_reference,
    conv2d_backward_reference,
    conv2d_forward_reference,
    gru_forward_reference,
    gru_gradients_reference,
    lstm_forward_reference,
    lstm_gradients_reference,
    simple_rnn_forward_reference,
    simple_rnn_gradients_reference,
)
from tests.nn.one_member_conv import conv

TOL = 1e-6


@pytest.fixture()
def gen():
    return np.random.default_rng(1234)


# -- convolution -------------------------------------------------------------

CONV_CASES = [
    # (batch, in_ch, out_ch, height, width, kernel)
    pytest.param(2, 3, 4, 8, 8, 3, id="same-3x3"),
    pytest.param(3, 1, 1, 5, 5, 1, id="pointwise"),
    pytest.param(1, 2, 3, 6, 10, 5, id="same-5x5-nonsquare"),
]


@pytest.mark.parametrize("batch,in_ch,out_ch,height,width,kernel", CONV_CASES)
def test_conv_forward_matches_reference(
    gen, batch, in_ch, out_ch, height, width, kernel
):
    layer = conv(in_ch, out_ch, kernel, seed=3)
    inputs = gen.normal(size=(batch, in_ch, height, width))
    vectorized = layer.forward(inputs)
    reference = conv2d_forward_reference(
        inputs, layer.weight.value, layer.bias.value
    )
    assert vectorized.shape == reference.shape
    assert np.max(np.abs(vectorized - reference)) <= TOL


@pytest.mark.parametrize("batch,in_ch,out_ch,height,width,kernel", CONV_CASES)
def test_conv_backward_matches_reference(
    gen, batch, in_ch, out_ch, height, width, kernel
):
    layer = conv(in_ch, out_ch, kernel, seed=3)
    inputs = gen.normal(size=(batch, in_ch, height, width))
    output = layer.forward(inputs)
    grad_output = gen.normal(size=output.shape)

    layer.zero_grad()
    grad_inputs = layer.backward(grad_output)
    ref_inputs, ref_weight, ref_bias = conv2d_backward_reference(
        inputs, layer.weight.value, grad_output
    )
    assert np.max(np.abs(grad_inputs - ref_inputs)) <= TOL
    assert np.max(np.abs(layer.weight.grad - ref_weight)) <= TOL
    assert np.max(np.abs(layer.bias.grad - ref_bias)) <= TOL


def test_conv_cached_patch_buffer_is_reused_and_correct(gen):
    layer = conv(2, 3, 3, seed=0)
    inputs_a = gen.normal(size=(4, 2, 6, 6))
    inputs_b = gen.normal(size=(4, 2, 6, 6))
    layer.forward(inputs_a)
    first_buffer, first_padded = layer._cols, layer._padded
    vectorized = layer.forward(inputs_b)
    assert layer._cols is first_buffer  # same geometry: buffers reused
    assert layer._padded is first_padded
    border = first_padded.copy()
    border[:, :, 1:-1, 1:-1] = 0.0
    assert not border.any()  # only the interior is ever written
    reference = conv2d_forward_reference(inputs_b, layer.weight.value, layer.bias.value)
    assert np.max(np.abs(vectorized - reference)) <= TOL
    # A different geometry must reallocate, not corrupt.
    smaller = gen.normal(size=(2, 2, 4, 4))
    vectorized_small = layer.forward(smaller)
    reference_small = conv2d_forward_reference(
        smaller, layer.weight.value, layer.bias.value
    )
    assert np.max(np.abs(vectorized_small - reference_small)) <= TOL


INPUT_GRAD_CASES = [
    # (batch, in_ch, out_ch, height, width, kernel)
    pytest.param(2, 2, 3, 7, 6, 3, id="stride1-same"),
    pytest.param(3, 2, 1, 5, 4, 1, id="pointwise"),
    pytest.param(1, 3, 2, 6, 11, 5, id="5x5-nonsquare"),
    pytest.param(2, 1, 2, 4, 9, 7, id="kernel-wider-than-image"),
    pytest.param(0, 2, 3, 6, 6, 3, id="empty-batch"),
]


@pytest.mark.parametrize("batch,in_ch,out_ch,height,width,kernel", INPUT_GRAD_CASES)
def test_conv_input_grad_matches_reference(
    gen, batch, in_ch, out_ch, height, width, kernel
):
    """The input gradient, a convolution of the output gradient with the
    flipped kernel, against the per-pixel loop."""
    layer = conv(in_ch, out_ch, kernel, seed=5)
    inputs = gen.normal(size=(batch, in_ch, height, width))
    grad_output = gen.normal(size=layer.forward(inputs).shape)
    grad_inputs = layer.backward(grad_output)
    ref_inputs, _, _ = conv2d_backward_reference(
        inputs, layer.weight.value, grad_output
    )
    assert grad_inputs.shape == inputs.shape
    assert np.max(np.abs(grad_inputs - ref_inputs), initial=0.0) <= 1e-12


@pytest.mark.parametrize("padding", [0, 1, 4])
def test_conv_without_input_grad_keeps_parameter_grads_bitwise(gen, padding):
    kernel = 2 * padding + 1
    full = conv(2, 3, kernel, seed=9)
    skipping = conv(2, 3, kernel, seed=9, needs_input_grad=False)
    inputs = gen.normal(size=(3, 2, 9, 8))
    grad_output = gen.normal(size=full.forward(inputs).shape)
    skipping.forward(inputs)
    assert full.backward(grad_output) is not None
    assert skipping.backward(grad_output) is None
    assert skipping._grad_padded is None  # no input-gradient scratch either
    assert np.array_equal(full.weight.grad, skipping.weight.grad)
    assert np.array_equal(full.bias.grad, skipping.bias.grad)


def test_conv_input_grad_does_not_alias_layer_scratch(gen):
    layer = conv(2, 2, 3, seed=4)
    inputs = gen.normal(size=(2, 2, 7, 7))
    output = layer.forward(inputs)
    first = layer.backward(gen.normal(size=output.shape))
    kept = first.copy()
    second = layer.backward(gen.normal(size=output.shape))
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    for scratch in (layer._cols, layer._padded, layer._grad_padded):
        assert not np.shares_memory(first, scratch)


def test_conv_gradcheck_vectorized_path(gen, gradcheck):
    layer = conv(2, 2, 3, seed=7)
    inputs = gen.normal(size=(2, 2, 7, 5))
    gradcheck.layer(layer, inputs, (2, 2, 7, 5), gen, atol=1e-6)


# -- pooling -----------------------------------------------------------------

POOL_CASES = [
    # (batch, channels, height, width, pool)
    pytest.param(2, 3, 8, 8, 2, id="2x2"),
    pytest.param(1, 1, 12, 8, (3, 4), id="rect-pool"),
    pytest.param(3, 2, 6, 10, (6, 10), id="global-window"),
    pytest.param(2, 1, 4, 4, 1, id="identity"),
]


@pytest.mark.parametrize("batch,channels,height,width,pool", POOL_CASES)
def test_avgpool_matches_reference(gen, batch, channels, height, width, pool):
    inputs = gen.normal(size=(batch, channels, height, width))
    vectorized = average_pool(inputs, pool)
    pool_size = (pool, pool) if isinstance(pool, int) else pool
    reference = avgpool2d_forward_reference(inputs, pool_size)
    assert np.max(np.abs(vectorized - reference)) <= TOL


def test_pooling_gradcheck_vectorized_path(gen, gradcheck):
    """The plan's pooling backward, over a rectangular region, through a
    one-conv UE network: its parameter gradients match central differences."""
    model = ModelConfig(
        image_height=4, image_width=6, pooling_height=2, pooling_width=3,
        cnn_channels=(), sequence_length=1,
    )
    client = UEClient(model, TrainingConfig(), seed=3)
    images = gen.random((2, 1, 4, 6))
    weights = gen.normal(size=(2, 1, 4))

    def loss():
        return float(np.sum(weights * client.forward(images)))

    loss()
    client.backward(weights)
    for _, parameter in client.cnn.named_parameters():
        numerical = gradcheck.parameter_gradient(loss, parameter)
        assert np.max(np.abs(numerical - parameter.grad)) < 1e-6


# -- recurrent ---------------------------------------------------------------

RECURRENT_SPECS = [
    pytest.param(
        SimpleRNN, simple_rnn_forward_reference, simple_rnn_gradients_reference,
        id="simple-rnn",
    ),
    pytest.param(GRU, gru_forward_reference, gru_gradients_reference, id="gru"),
    pytest.param(LSTM, lstm_forward_reference, lstm_gradients_reference, id="lstm"),
]


@pytest.mark.parametrize("cls,forward_reference,gradients_reference", RECURRENT_SPECS)
def test_recurrent_forward_matches_reference(
    gen, cls, forward_reference, gradients_reference
):
    layer = cls(input_size=5, hidden_size=6, seed=11)
    inputs = gen.normal(size=(3, 4, 5))
    vectorized = layer.forward(inputs)
    reference = forward_reference(
        inputs, layer.w_x.value, layer.w_h.value, layer.bias.value
    )
    assert vectorized.shape == reference.shape
    assert np.max(np.abs(vectorized - reference)) <= TOL


@pytest.mark.parametrize("cls,forward_reference,gradients_reference", RECURRENT_SPECS)
def test_recurrent_gradients_match_reference(
    gen, cls, forward_reference, gradients_reference
):
    layer = cls(input_size=4, hidden_size=5, seed=13)
    inputs = gen.normal(size=(2, 6, 4))
    output = layer.forward(inputs)
    grad_output = gen.normal(size=output.shape)

    layer.zero_grad()
    grad_inputs = layer.backward(grad_output)
    reference = gradients_reference(
        inputs, layer.w_x.value, layer.w_h.value, layer.bias.value, grad_output
    )
    assert np.max(np.abs(grad_inputs - reference["inputs"])) <= TOL
    assert np.max(np.abs(layer.w_x.grad - reference["w_x"])) <= TOL
    assert np.max(np.abs(layer.w_h.grad - reference["w_h"])) <= TOL
    assert np.max(np.abs(layer.bias.grad - reference["bias"])) <= TOL


@pytest.mark.parametrize("cls,forward_reference,gradients_reference", RECURRENT_SPECS)
def test_recurrent_gradcheck_vectorized_path(
    gen, gradcheck, cls, forward_reference, gradients_reference
):
    layer = cls(input_size=3, hidden_size=4, seed=2)
    inputs = gen.normal(size=(2, 4, 3))
    gradcheck.layer(layer, inputs, (2, 4), gen, atol=1e-6)
