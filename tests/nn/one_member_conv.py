"""A ``Conv2D``'s parameters run through the stacked kernels at one member.

``Conv2D`` only holds parameters: the program convolves with the stacked
kernels of :mod:`repro.nn.stacked`, at N members to train a fleet and at one
member for inference.  :class:`OneMemberConv` gives the kernel tests a
layer-shaped handle on that one-member path (``forward``/``backward`` plus
the parameter protocol :func:`tests.gradcheck.check_layer_gradients` uses),
keeping the reusable column buffer and the padding buffers of the input and
of the output gradient that the UE network's plan keeps per conv step.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers.conv import Conv2D, padded_buffer
from repro.nn.stacked import stacked_conv2d_backward, stacked_conv2d_forward


class OneMemberConv:
    """``layer``'s convolution as a one-member stacked pass.

    Args:
        layer: the parameters to convolve with.
        needs_input_grad: compute the input gradient in :meth:`backward`;
            ``False`` returns ``None`` there, as the UE network's first conv
            does.
    """

    def __init__(self, layer: Conv2D, needs_input_grad: bool = True):
        self.layer = layer
        self.weight = layer.weight
        self.bias = layer.bias
        self.needs_input_grad = needs_input_grad
        self._cols = None
        self._padded = None
        self._grad_padded = None

    def named_parameters(self):
        return self.layer.named_parameters()

    def zero_grad(self) -> None:
        self.layer.zero_grad()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._padded = padded_buffer(inputs.shape, self.layer.kernel_size, self._padded)
        output, self._cols = stacked_conv2d_forward(
            self.weight.value[None],
            self.bias.value[None],
            inputs[None],
            cols_out=self._cols,
            padded_out=self._padded,
        )
        return output[0]

    def backward(self, grad_output: np.ndarray):
        if self._cols is None:
            raise RuntimeError("backward() called before forward()")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if self.needs_input_grad:
            self._grad_padded = padded_buffer(
                grad_output.shape, self.layer.kernel_size, self._grad_padded
            )
        grad_inputs, grad_weight, grad_bias = stacked_conv2d_backward(
            self.weight.value[None],
            self._cols,
            grad_output[None],
            needs_input_grad=self.needs_input_grad,
            padded_out=self._grad_padded,
        )
        self.weight.grad += grad_weight[0]
        self.bias.grad += grad_bias[0]
        return None if grad_inputs is None else grad_inputs[0]


def conv(*args, needs_input_grad: bool = True, **kwargs) -> OneMemberConv:
    """``OneMemberConv(Conv2D(*args, **kwargs))``."""
    return OneMemberConv(Conv2D(*args, **kwargs), needs_input_grad=needs_input_grad)
