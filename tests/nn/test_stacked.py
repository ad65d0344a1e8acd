"""Stacked (member-axis) kernels vs. their loop references and real layers.

The stacked UE bank fuses N identical-architecture models into one
set of broadcasted GEMMs (:mod:`repro.nn.stacked`).  The acceptance bar is
1e-6 agreement; because the single-model kernels in
:mod:`repro.nn.layers.conv` use the same ``np.matmul`` lowering, the stacked
variants are in fact *bitwise* identical member-for-member, and these tests
pin that.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers.conv import Conv2D, dilated_buffer, padded_buffer
from repro.nn.optim import Adam
from repro.nn.layers.base import Parameter
from repro.nn.stacked import (
    adam_bias_corrections,
    stacked_adam_update,
    stacked_clip_scales,
    stacked_conv2d_backward,
    stacked_conv2d_backward_reference,
    stacked_conv2d_forward,
    stacked_conv2d_forward_reference,
    stacked_gradient_norms,
)

GEOMETRIES = [
    # (in_channels, out_channels, kernel, stride, padding, H, W)
    (1, 3, (3, 3), (1, 1), (0, 0), 8, 8),
    (2, 4, (3, 3), (1, 1), (1, 1), 7, 9),
    (3, 2, (2, 2), (2, 2), (0, 0), 8, 8),
    (1, 5, (5, 3), (2, 1), (2, 1), 11, 6),
]


@pytest.fixture()
def gen():
    return np.random.default_rng(321)


def _stack_case(gen, geometry, members=4, batch=3, biased=True):
    in_channels, out_channels, kernel, stride, padding, height, width = geometry
    weights = gen.standard_normal(
        (members, out_channels, in_channels) + kernel
    )
    biases = gen.standard_normal((members, out_channels)) if biased else None
    inputs = gen.standard_normal((members, batch, in_channels, height, width))
    return weights, biases, inputs, stride, padding


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("biased", [True, False])
def test_stacked_forward_matches_reference(gen, geometry, biased):
    weights, biases, inputs, stride, padding = _stack_case(
        gen, geometry, biased=biased
    )
    output, _ = stacked_conv2d_forward(weights, biases, inputs, stride, padding)
    expected = stacked_conv2d_forward_reference(
        weights, biases, inputs, stride, padding
    )
    assert np.array_equal(output, expected)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_stacked_backward_matches_reference(gen, geometry):
    weights, biases, inputs, stride, padding = _stack_case(gen, geometry)
    output, cols = stacked_conv2d_forward(weights, biases, inputs, stride, padding)
    grad_output = gen.standard_normal(output.shape)
    grad_inputs, grad_weights, grad_biases = stacked_conv2d_backward(
        weights, cols, grad_output, inputs.shape, stride, padding
    )
    ref_inputs, ref_weights, ref_biases = stacked_conv2d_backward_reference(
        weights, inputs, grad_output, stride, padding
    )
    assert np.array_equal(grad_inputs, ref_inputs)
    assert np.array_equal(grad_weights, ref_weights)
    assert np.array_equal(grad_biases, ref_biases)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_stacked_kernels_match_per_member_conv2d_layers(gen, geometry):
    """The batched GEMM equals N independent Conv2D layers, bitwise."""
    in_channels, out_channels, kernel, stride, padding, _, _ = geometry
    weights, biases, inputs, stride, padding = _stack_case(gen, geometry)
    members = len(weights)
    layers = []
    for member in range(members):
        layer = Conv2D(
            in_channels, out_channels, kernel, stride=stride, padding=padding,
            seed=member,
        )
        layer.weight.value[...] = weights[member]
        layer.bias.value[...] = biases[member]
        layers.append(layer)

    output, cols = stacked_conv2d_forward(weights, biases, inputs, stride, padding)
    member_outputs = [layer.forward(inputs[i]) for i, layer in enumerate(layers)]
    for member in range(members):
        assert np.array_equal(output[member], member_outputs[member])

    grad_output = gen.standard_normal(output.shape)
    grad_inputs, grad_weights, grad_biases = stacked_conv2d_backward(
        weights, cols, grad_output, inputs.shape, stride, padding
    )
    for member, layer in enumerate(layers):
        member_grad_inputs = layer.backward(grad_output[member])
        assert np.array_equal(grad_inputs[member], member_grad_inputs)
        assert np.array_equal(grad_weights[member], layer.weight.grad)
        assert np.array_equal(grad_biases[member], layer.bias.grad)


def test_stacked_forward_reuses_patch_buffer(gen):
    weights, biases, inputs, stride, padding = _stack_case(gen, GEOMETRIES[0])
    first_out, cols = stacked_conv2d_forward(weights, biases, inputs, stride, padding)
    inputs2 = gen.standard_normal(inputs.shape)
    reused_out, cols2 = stacked_conv2d_forward(
        weights, biases, inputs2, stride, padding, cols_out=cols
    )
    assert cols2 is cols  # the buffer was reused, not reallocated
    expected = stacked_conv2d_forward_reference(
        weights, biases, inputs2, stride, padding
    )
    assert np.array_equal(reused_out, expected)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_stacked_backward_reuses_buffers_and_skips_input_grad(gen, geometry):
    """Caller-kept padding/dilation buffers and ``needs_input_grad=False``
    leave every gradient bitwise unchanged."""
    weights, biases, inputs, stride, padding = _stack_case(gen, geometry)
    flat_shape = (inputs.shape[0] * inputs.shape[1],) + inputs.shape[2:]
    padded = padded_buffer(flat_shape, padding)
    output, cols = stacked_conv2d_forward(
        weights, biases, inputs, stride, padding, padded_out=padded
    )
    grad_output = gen.standard_normal(output.shape)
    expected = stacked_conv2d_backward_reference(
        weights, inputs, grad_output, stride, padding
    )
    dilated = dilated_buffer(
        (flat_shape[0], weights.shape[1]), inputs.shape[3:], weights.shape[3:]
    )
    for _ in range(2):  # the second pass reuses the dirtied buffers
        output_again, _ = stacked_conv2d_forward(
            weights, biases, inputs, stride, padding, cols_out=cols, padded_out=padded
        )
        assert np.array_equal(output_again, output)
        grads = stacked_conv2d_backward(
            weights, cols, grad_output, inputs.shape, stride, padding,
            dilated_out=dilated,
        )
        for got, want in zip(grads, expected):
            assert np.array_equal(got, want)
    grad_inputs, grad_weights, grad_biases = stacked_conv2d_backward(
        weights, cols, grad_output, inputs.shape, stride, padding,
        needs_input_grad=False,
    )
    assert grad_inputs is None
    assert np.array_equal(grad_weights, expected[1])
    assert np.array_equal(grad_biases, expected[2])


# -- masked stacked Adam ------------------------------------------------------------


def _random_masks(gen, members, steps):
    masks = gen.random((steps, members)) < 0.6
    masks[0] = True  # every member takes at least one step
    return masks


def test_masked_stacked_adam_matches_per_member_optimizers(gen):
    members, steps = 5, 7
    shapes = [(3, 2, 2), (4,)]
    stacked_values = [
        gen.standard_normal((members,) + shape) for shape in shapes
    ]
    first = [np.zeros_like(value) for value in stacked_values]
    second = [np.zeros_like(value) for value in stacked_values]
    step_counts = np.zeros(members, dtype=np.int64)

    params = [
        [
            Parameter(f"p{index}", stacked_values[index][member].copy())
            for index in range(len(shapes))
        ]
        for member in range(members)
    ]
    optimizers = [
        Adam(member_params, 0.01, beta1=0.9, beta2=0.999)
        for member_params in params
    ]

    for mask in _random_masks(gen, members, steps):
        grads = [
            gen.standard_normal((members,) + shape) for shape in shapes
        ]
        step_counts += mask
        correction1, correction2 = adam_bias_corrections(
            step_counts, mask, 0.9, 0.999
        )
        for index in range(len(shapes)):
            stacked_adam_update(
                stacked_values[index],
                grads[index],
                first[index],
                second[index],
                mask,
                correction1,
                correction2,
                0.01,
                0.9,
                0.999,
                optimizers[0].epsilon,
            )
        for member in range(members):
            if not mask[member]:
                continue
            for index, param in enumerate(params[member]):
                param.grad[...] = grads[index][member]
            optimizers[member].step()
            optimizers[member].zero_grad()

    for member in range(members):
        slots = optimizers[member]._slots()
        for index, param in enumerate(params[member]):
            assert np.array_equal(stacked_values[index][member], param.value)
            assert np.array_equal(
                first[index][member], slots["first_moment"][index]
            )
            assert np.array_equal(
                second[index][member], slots["second_moment"][index]
            )
        assert step_counts[member] == optimizers[member].step_count


def test_stacked_clip_scales_match_per_member_clipping(gen):
    members = 6
    shapes = [(3, 2), (5,)]
    # Mix small and huge gradients so some members clip and others do not.
    scale_factors = np.array([0.01, 1.0, 10.0, 100.0, 0.5, 42.0])
    grads = [
        gen.standard_normal((members,) + shape)
        * scale_factors.reshape((members,) + (1,) * len(shape))
        for shape in shapes
    ]
    max_norm = 5.0
    norms = stacked_gradient_norms(grads)
    scales = stacked_clip_scales(norms, max_norm)

    clipped_any = False
    for member in range(members):
        params = [
            Parameter(f"p{index}", np.zeros(shape))
            for index, shape in enumerate(shapes)
        ]
        for index, param in enumerate(params):
            param.grad[...] = grads[index][member]
        assert Adam(params, 0.01).clip_gradients(max_norm) == norms[member]
        for index, param in enumerate(params):
            assert np.array_equal(
                grads[index][member] * scales[member], param.grad
            )
        if scales[member] != 1.0:
            clipped_any = True
    assert clipped_any  # the case actually exercised clipping
    assert np.any(scales == 1.0)  # ... and the identity path


def test_stacked_clip_scales_rejects_bad_norm():
    with pytest.raises(ValueError):
        stacked_clip_scales(np.ones(2), 0.0)
