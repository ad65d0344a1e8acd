"""Neural-network layers."""
from repro.nn.layers.activations import ReLU, Sigmoid
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import average_pool
from repro.nn.layers.recurrent import GRU, LSTM, SimpleRNN
from repro.nn.layers.sequential import Sequential

__all__ = [
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
    "average_pool",
    "col2im",
    "im2col",
]
