"""Builders for the UE-side CNN and the BS-side RNN halves of the split model.

The split architecture follows Fig. 1 of the paper:

* the UE holds convolutional layers that map each raw depth image to a
  single-channel *output image* of the same spatial size, followed by an
  average-pooling layer of region ``w_H x w_W`` that compresses the output to
  ``(N_H / w_H) x (N_W / w_W)`` values — the compressed image that is
  transmitted over the air;
* the BS holds recurrent layers that consume the length-``L`` sequence of
  (compressed image, received RF power) vectors and output the predicted
  future received power.
"""
from __future__ import annotations

from repro.nn.layers import (
    AveragePool2D,
    Conv2D,
    Dense,
    Flatten,
    GRU,
    LSTM,
    ReLU,
    Sequential,
    Sigmoid,
    SimpleRNN,
)
from repro.split.config import ModelConfig
from repro.utils.seeding import SeedLike, spawn_generators


def build_ue_cnn(config: ModelConfig, seed: SeedLike = None) -> Sequential:
    """Build the UE-side CNN (without the pooling compressor).

    The network maps a ``(batch, 1, N_H, N_W)`` depth image to a
    ``(batch, 1, N_H, N_W)`` output image using 'same'-padded convolutions, so
    that the subsequent pooling stage controls the transmitted resolution
    exactly as in the paper.

    The convolutions run with ``cache_patches=True``: inference feeds the CNN
    equal chunks of distinct frames, so each layer's im2col column buffer is
    reused from chunk to chunk (training runs the weights in a
    :class:`~repro.fleet.bank.StackedUEBank`, which keeps its own buffers).
    The first convolution sees the raw depth images, so it is built with
    ``needs_input_grad=False`` and backward stops there.
    """
    if not config.use_image:
        raise ValueError("cannot build a UE CNN for an RF-only configuration")
    seeds = spawn_generators(seed, len(config.cnn_channels) + 1)
    layers = []
    in_channels = 1
    for index, out_channels in enumerate(config.cnn_channels):
        layers.append(
            Conv2D(
                in_channels,
                out_channels,
                config.cnn_kernel_size,
                padding="same",
                cache_patches=True,
                needs_input_grad=index > 0,
                seed=seeds[index],
                name=f"conv{index}",
            )
        )
        layers.append(ReLU(name=f"relu{index}"))
        in_channels = out_channels
    layers.append(
        Conv2D(
            in_channels,
            1,
            config.cnn_kernel_size,
            padding="same",
            cache_patches=True,
            needs_input_grad=bool(config.cnn_channels),
            seed=seeds[-1],
            name="conv_out",
        )
    )
    # A sigmoid keeps the output image in [0, 1], comparable to the input depth
    # scale (and bounded for transmission quantization).
    layers.append(Sigmoid(name="sigmoid_out"))
    return Sequential(layers, name="ue_cnn")


def build_pooling_compressor(config: ModelConfig) -> Sequential:
    """The average-pooling + flatten stage producing the transmitted payload."""
    if not config.use_image:
        raise ValueError("cannot build a compressor for an RF-only configuration")
    return Sequential(
        [
            AveragePool2D(
                (config.pooling_height, config.pooling_width), name="avg_pool"
            ),
            Flatten(name="flatten"),
        ],
        name="ue_compressor",
    )


def _recurrent_layer(config: ModelConfig, input_size: int, seed: SeedLike):
    rnn_type = config.rnn_type.lower()
    if rnn_type == "lstm":
        return LSTM(input_size, config.rnn_hidden_size, seed=seed, name="lstm")
    if rnn_type == "gru":
        return GRU(input_size, config.rnn_hidden_size, seed=seed, name="gru")
    return SimpleRNN(input_size, config.rnn_hidden_size, seed=seed, name="rnn")


def build_bs_rnn(config: ModelConfig, seed: SeedLike = None) -> Sequential:
    """Build the BS-side recurrent network.

    Input: ``(batch, L, F)`` where ``F = image feature size (+1 with RF)``.
    Output: ``(batch, 1)`` predicted (normalized) received power.
    """
    input_size = config.rnn_input_size
    if input_size <= 0:
        raise ValueError("RNN input size must be positive")
    seeds = spawn_generators(seed, 3)
    layers = [_recurrent_layer(config, input_size, seeds[0])]
    if config.head_hidden_size > 0:
        layers.append(
            Dense(
                config.rnn_hidden_size,
                config.head_hidden_size,
                seed=seeds[1],
                name="head_hidden",
            )
        )
        layers.append(ReLU(name="head_relu"))
        layers.append(
            Dense(config.head_hidden_size, 1, seed=seeds[2], name="head_out")
        )
    else:
        layers.append(Dense(config.rnn_hidden_size, 1, seed=seeds[1], name="head_out"))
    return Sequential(layers, name="bs_rnn")
