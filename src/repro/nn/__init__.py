"""A small, from-scratch numpy deep-learning substrate.

This package replaces the PyTorch/Keras dependency of the original paper with
explicit forward/backward layers, which keeps the split-learning cut layer —
the object the paper studies — visible in code.  It holds what the paper's
model needs: the UE side's convolution parameters and the stacked kernels
that run them (:mod:`repro.nn.stacked`), with ReLU, sigmoid and average
pooling; recurrent layers and a dense head on the BS side; an MSE loss,
Adam, and the atomic state-tree archives that checkpoints are written with.
"""
from repro.nn import initializers, metrics
from repro.nn.layers import (
    AveragePool2D,
    Conv2D,
    Dense,
    GRU,
    LSTM,
    Layer,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    SimpleRNN,
)
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.metrics import mean_squared_error, root_mean_squared_error
from repro.nn.optim import Adam, Optimizer
from repro.nn.serialization import (
    atomic_savez,
    atomic_write_text,
    load_state_tree,
    save_state_tree,
)
from repro.nn.stacked import (
    stacked_adam_update,
    stacked_clip_scales,
    stacked_conv2d_backward,
    stacked_conv2d_forward,
    stacked_gradient_norms,
)

__all__ = [
    "Adam",
    "AveragePool2D",
    "Conv2D",
    "Dense",
    "GRU",
    "LSTM",
    "Layer",
    "Loss",
    "MeanSquaredError",
    "Optimizer",
    "Parameter",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SimpleRNN",
    "atomic_savez",
    "atomic_write_text",
    "initializers",
    "load_state_tree",
    "mean_squared_error",
    "metrics",
    "root_mean_squared_error",
    "save_state_tree",
    "stacked_adam_update",
    "stacked_clip_scales",
    "stacked_conv2d_backward",
    "stacked_conv2d_forward",
    "stacked_gradient_norms",
]
