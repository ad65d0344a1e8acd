"""Neural-network layers."""
from repro.nn.layers.activations import ReLU, Sigmoid
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import (
    Conv2D,
    col2im,
    conv2d_backward_reference,
    conv2d_forward_reference,
    conv_output_size,
    im2col,
)
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import (
    AveragePool2D,
    avgpool2d_backward_reference,
    avgpool2d_forward_reference,
)
from repro.nn.layers.recurrent import (
    GRU,
    LSTM,
    SimpleRNN,
    gru_forward_reference,
    gru_gradients_reference,
    lstm_forward_reference,
    lstm_gradients_reference,
    simple_rnn_forward_reference,
    simple_rnn_gradients_reference,
)
from repro.nn.layers.sequential import Sequential

__all__ = [
    "AveragePool2D",
    "Conv2D",
    "Dense",
    "GRU",
    "LSTM",
    "Layer",
    "Parameter",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SimpleRNN",
    "avgpool2d_backward_reference",
    "avgpool2d_forward_reference",
    "col2im",
    "conv2d_backward_reference",
    "conv2d_forward_reference",
    "conv_output_size",
    "gru_forward_reference",
    "gru_gradients_reference",
    "im2col",
    "lstm_forward_reference",
    "lstm_gradients_reference",
    "simple_rnn_forward_reference",
    "simple_rnn_gradients_reference",
]
