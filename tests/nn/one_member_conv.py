"""A ``Conv2D``'s parameters run through the stacked kernels at one member.

``Conv2D`` only holds parameters: the program convolves with the stacked
kernels of :mod:`repro.nn.stacked`, at N members to train a fleet and at one
member for inference.  :class:`OneMemberConv` gives the kernel tests a
layer-shaped handle on that one-member path (``forward``/``backward`` plus
the parameter protocol :func:`tests.gradcheck.check_layer_gradients` uses),
keeping the reusable column, padding and dilation buffers the UE network's
plan keeps per conv step.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers.conv import Conv2D, dilated_buffer, padded_buffer
from repro.nn.stacked import stacked_conv2d_backward, stacked_conv2d_forward


class OneMemberConv:
    """``layer``'s convolution as a one-member stacked pass.

    Args:
        layer: the parameters (and geometry) to convolve with.
        needs_input_grad: compute the input gradient in :meth:`backward`;
            ``False`` returns ``None`` there, as the UE network's first conv
            does.
    """

    def __init__(self, layer: Conv2D, needs_input_grad: bool = True):
        self.layer = layer
        self.weight = layer.weight
        self.bias = layer.bias
        self.stride = layer.stride
        self.padding = layer.padding
        self.needs_input_grad = needs_input_grad
        self._cols = None
        self._padded = None
        self._dilated = None
        self._input_shape = None

    def named_parameters(self):
        return self.layer.named_parameters()

    def zero_grad(self) -> None:
        self.layer.zero_grad()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)[None]
        self._padded = padded_buffer(
            (inputs.shape[1],) + inputs.shape[2:], self.padding, self._padded
        )
        bias = None if self.bias is None else self.bias.value[None]
        output, self._cols = stacked_conv2d_forward(
            self.weight.value[None],
            bias,
            inputs,
            self.stride,
            self.padding,
            cols_out=self._cols,
            padded_out=self._padded,
        )
        self._input_shape = inputs.shape
        return output[0]

    def backward(self, grad_output: np.ndarray):
        if self._cols is None:
            raise RuntimeError("backward() called before forward()")
        grad_output = np.asarray(grad_output, dtype=np.float64)[None]
        if self.needs_input_grad:
            self._dilated = dilated_buffer(
                (grad_output.shape[1], grad_output.shape[2]),
                self._input_shape[3:],
                self.layer.kernel_size,
                self._dilated,
            )
        grad_inputs, grad_weight, grad_bias = stacked_conv2d_backward(
            self.weight.value[None],
            self._cols,
            grad_output,
            self._input_shape,
            self.stride,
            self.padding,
            needs_input_grad=self.needs_input_grad,
            dilated_out=self._dilated,
        )
        self.weight.grad += grad_weight[0]
        if self.bias is not None:
            self.bias.grad += grad_bias[0]
        return None if grad_inputs is None else grad_inputs[0]


def conv(*args, needs_input_grad: bool = True, **kwargs) -> OneMemberConv:
    """``OneMemberConv(Conv2D(*args, **kwargs))``."""
    return OneMemberConv(Conv2D(*args, **kwargs), needs_input_grad=needs_input_grad)
