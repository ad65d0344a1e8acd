"""Micro-benchmarks of the vectorized NN kernels vs. their loop references.

Times the forward and backward passes of the conv / pooling / recurrent
kernels at the paper's geometry (40x40 depth images, 3x3 'same' convolution,
4x4 average pooling, length-4 sequences into a 32-unit recurrent cell) and
reports per-layer throughput in samples/s next to the retained
``*_reference`` loop implementations.  The numbers are the perf baseline for
future kernel work; the conv forward speedup is asserted to stay >= 5x.
Convolutions are timed as the program runs them at inference: the stacked
kernels of :mod:`repro.nn.stacked` at one member, with the column, padding
and dilation buffers reused from pass to pass
(:class:`~tests.nn.one_member_conv.OneMemberConv`).

One row compares two vectorized formulations instead: the stacked backward
(transposed-convolution input gradient) against the ``Wᵀ · grad`` columns +
``col2im`` scatter-add it replaced, rebuilt inline, at the fast scale's
``conv_out`` geometry; that speedup is asserted to stay >= 4x.

Reference timings are taken at a small batch and normalized per sample so
the naive loops keep the benchmark fast; the vectorized kernels run at the
paper's batch size.  ``REPRO_BENCH_SCALE=smoke`` shrinks batches and repeats
for CI smoke runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.experiments import ExperimentScale
from repro.nn.layers.conv import (
    Conv2D,
    col2im,
    conv2d_backward_reference,
    conv2d_forward_reference,
    im2col,
)
from repro.nn.layers.pooling import average_pool, avgpool2d_forward_reference
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

from tests.nn.one_member_conv import OneMemberConv

IMAGE_SIZE = 40  # the paper's depth-image resolution, also the asserted case
POOL = 4
SEQUENCE_LENGTH = 4
HIDDEN = 32
RNN_INPUT = (IMAGE_SIZE // POOL) ** 2 + 1  # pooled features + RF power

MIN_CONV_FORWARD_SPEEDUP = 5.0
MIN_CONV_BACKWARD_SPEEDUP = 4.0

#: The fast scale's ``conv_out`` layer: batch * L images, in -> out channels,
#: image size.
CONV_OUT_GEOMETRY = (128, 4, 1, 20)


@dataclass
class KernelRecord:
    """One row of the throughput table."""

    kernel: str
    vectorized_sps: float
    reference_sps: float

    @property
    def speedup(self) -> float:
        return self.vectorized_sps / self.reference_sps


def _best_time(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _throughput(fn: Callable[[], None], batch: int, repeats: int) -> float:
    """Per-sample throughput (samples/s) of ``fn`` processing ``batch`` samples."""
    return batch / _best_time(fn, repeats)


def _bench_batches(scale: ExperimentScale) -> tuple[int, int, int]:
    """(vectorized batch, reference batch, timing repeats) for the scale."""
    if scale.num_samples <= ExperimentScale.smoke().num_samples:
        return 8, 1, 2
    return scale.batch_size, 2, 5


def _col2im_conv_backward(
    layer: Conv2D, cols: np.ndarray, input_shape: tuple, grad_output: np.ndarray
) -> np.ndarray:
    """The stacked conv backward as it was before the transposed-convolution
    input gradient: the weight gradient, then ``Wᵀ · grad`` columns
    scattered back by ``col2im``."""
    batch, out_channels = grad_output.shape[:2]
    grad_flat = grad_output.reshape(batch, out_channels, -1)
    grad_kernel = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
    layer.weight.grad += grad_kernel.reshape(layer.weight.value.shape)
    layer.bias.grad += grad_flat.sum(axis=(0, 2))
    kernel_matrix = layer.weight.value.reshape(out_channels, -1)
    grad_cols = np.matmul(kernel_matrix.T, grad_flat)
    return col2im(
        grad_cols, input_shape, layer.kernel_size, layer.stride, layer.padding
    )


def _conv_backward_record(gen: np.random.Generator, repeats: int) -> KernelRecord:
    """The stacked conv backward vs the ``col2im`` formulation at ``conv_out``."""
    batch, in_channels, out_channels, size = CONV_OUT_GEOMETRY
    layer = Conv2D(in_channels, out_channels, 3, padding="same", seed=0)
    inputs = gen.normal(size=(batch, in_channels, size, size))
    conv = OneMemberConv(layer)
    grad_output = gen.normal(size=conv.forward(inputs).shape)
    cols = im2col(inputs, layer.kernel_size, layer.stride, layer.padding)
    old = _col2im_conv_backward(layer, cols, inputs.shape, grad_output)
    assert np.allclose(conv.backward(grad_output), old, rtol=0.0, atol=1e-12)
    return KernelRecord(
        "conv_out backward/col2im",
        _throughput(lambda: conv.backward(grad_output), batch, repeats),
        _throughput(
            lambda: _col2im_conv_backward(layer, cols, inputs.shape, grad_output),
            batch,
            repeats,
        ),
    )


def _run_kernel_suite(scale: ExperimentScale) -> List[KernelRecord]:
    gen = np.random.default_rng(0)
    vec_batch, ref_batch, repeats = _bench_batches(scale)
    records: List[KernelRecord] = []

    # -- convolution: the paper's first UE layer (1 -> 8 channels, 3x3 same) --
    layer = Conv2D(1, 8, 3, padding="same", seed=0)
    images = gen.normal(size=(vec_batch, 1, IMAGE_SIZE, IMAGE_SIZE))
    images_small = images[:ref_batch]
    conv = OneMemberConv(layer)
    conv_out = conv.forward(images)
    grad_out = gen.normal(size=conv_out.shape)

    records.append(
        KernelRecord(
            "conv2d forward 40x40",
            _throughput(lambda: conv.forward(images), vec_batch, repeats),
            _throughput(
                lambda: conv2d_forward_reference(
                    images_small, layer.weight.value, layer.bias.value,
                    layer.stride, layer.padding,
                ),
                ref_batch,
                repeats,
            ),
        )
    )
    records.append(
        KernelRecord(
            "conv2d backward 40x40",
            _throughput(lambda: conv.backward(grad_out), vec_batch, repeats),
            _throughput(
                lambda: conv2d_backward_reference(
                    images_small, layer.weight.value, grad_out[:ref_batch],
                    layer.stride, layer.padding,
                ),
                ref_batch,
                repeats,
            ),
        )
    )
    records.append(_conv_backward_record(gen, max(repeats, 10)))

    # -- pooling: the paper's 4x4 compression knob -----------------------------
    feature_maps = gen.normal(size=(vec_batch, 1, IMAGE_SIZE, IMAGE_SIZE))
    maps_small = feature_maps[:ref_batch]
    records.append(
        KernelRecord(
            f"avgpool {POOL}x{POOL} forward",
            _throughput(lambda: average_pool(feature_maps, POOL), vec_batch, repeats),
            _throughput(
                lambda: avgpool2d_forward_reference(maps_small, (POOL, POOL)),
                ref_batch,
                repeats,
            ),
        )
    )
    # -- recurrent: the paper's BS cell over length-4 sequences ----------------
    sequences = gen.normal(size=(vec_batch, SEQUENCE_LENGTH, RNN_INPUT))
    for cls, fwd_ref, grad_ref, name in (
        (SimpleRNN, simple_rnn_forward_reference, simple_rnn_gradients_reference, "rnn"),
        (GRU, gru_forward_reference, gru_gradients_reference, "gru"),
        (LSTM, lstm_forward_reference, lstm_gradients_reference, "lstm"),
    ):
        cell = cls(RNN_INPUT, HIDDEN, seed=0)
        cell_out = cell.forward(sequences)
        cell_grad = gen.normal(size=cell_out.shape)
        records.append(
            KernelRecord(
                f"{name} forward L={SEQUENCE_LENGTH}",
                _throughput(lambda: cell.forward(sequences), vec_batch, repeats),
                _throughput(
                    lambda: fwd_ref(
                        sequences, cell.w_x.value, cell.w_h.value, cell.bias.value
                    ),
                    vec_batch,
                    repeats,
                ),
            )
        )
        records.append(
            KernelRecord(
                f"{name} backward L={SEQUENCE_LENGTH}",
                _throughput(lambda: cell.backward(cell_grad), vec_batch, repeats),
                _throughput(
                    lambda: grad_ref(
                        sequences, cell.w_x.value, cell.w_h.value, cell.bias.value,
                        cell_grad,
                    ),
                    vec_batch,
                    repeats,
                ),
            )
        )
    return records


def test_nn_kernel_throughput(benchmark, scale):
    records = benchmark.pedantic(
        lambda: _run_kernel_suite(scale), rounds=1, iterations=1
    )

    print("\n=== NN kernel throughput (vectorized vs loop reference) ===")
    print(f"{'kernel':<26s} {'vectorized':>14s} {'reference':>14s} {'speedup':>9s}")
    for record in records:
        print(
            f"{record.kernel:<26s} {record.vectorized_sps:>11.0f}/s "
            f"{record.reference_sps:>11.0f}/s {record.speedup:>8.1f}x"
        )

    by_name = {record.kernel: record for record in records}
    conv_forward = by_name["conv2d forward 40x40"]
    # The acceptance bar: the im2col GEMM path must beat the per-pixel loop
    # by >= 5x at the paper's input size (it is typically >100x).
    assert conv_forward.speedup >= MIN_CONV_FORWARD_SPEEDUP, (
        f"conv forward speedup {conv_forward.speedup:.1f}x below "
        f"{MIN_CONV_FORWARD_SPEEDUP}x"
    )
    conv_backward = by_name["conv_out backward/col2im"]
    assert conv_backward.speedup >= MIN_CONV_BACKWARD_SPEEDUP, (
        f"conv backward speedup over the col2im formulation "
        f"{conv_backward.speedup:.1f}x below {MIN_CONV_BACKWARD_SPEEDUP}x"
    )
    # The remaining rows are informational (recurrent forward sits near 1x by
    # construction at L=4); just require sane, finite measurements.
    for record in records:
        assert record.vectorized_sps > 0 and np.isfinite(record.speedup)
