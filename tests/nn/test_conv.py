"""Tests for the Conv2D parameters, the im2col helpers and the one-member
convolution the program runs with them."""
import numpy as np
import pytest

from repro.nn import Conv2D
from repro.nn.layers.conv import col2im, im2col

from tests.gradcheck import check_layer_gradients
from tests.nn.one_member_conv import conv


@pytest.fixture()
def gen():
    return np.random.default_rng(21)


def test_conv_output_size(gen):
    """A 'same' convolution keeps the spatial size, whatever the kernel."""
    for kernel in (1, 3, 5, 7):
        layer = conv(2, 3, kernel, seed=0)
        assert layer.forward(gen.normal(size=(1, 2, 8, 5))).shape == (1, 3, 8, 5)


def test_im2col_col2im_roundtrip_counts(gen):
    images = gen.normal(size=(2, 3, 6, 6))
    cols = im2col(images, 3)
    assert cols.shape == (2, 3 * 9, 36)
    back = col2im(cols, images.shape, 3)
    # col2im accumulates overlaps; interior pixels are counted 9 times.
    assert back.shape == images.shape
    assert np.allclose(back[:, :, 2:4, 2:4], 9.0 * images[:, :, 2:4, 2:4])


def test_forward_shape_same_padding(gen):
    layer = conv(1, 4, 3, seed=0)
    output = layer.forward(gen.normal(size=(2, 1, 10, 10)))
    assert output.shape == (2, 4, 10, 10)


def test_identity_kernel_reproduces_input(gen):
    layer = conv(1, 1, 1, seed=0)
    layer.weight.value[...] = 1.0
    inputs = gen.normal(size=(2, 1, 5, 5))
    assert np.allclose(layer.forward(inputs), inputs)


def test_known_convolution_result():
    layer = conv(1, 1, 3, seed=0)
    layer.weight.value[...] = 1.0  # box filter: output = sum of 3x3 patch
    inputs = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
    output = layer.forward(inputs)
    assert output.shape == (1, 1, 5, 5)
    assert output[0, 0, 1, 1] == pytest.approx(inputs[0, 0, :3, :3].sum())
    # The zero border: a corner sums only the 2x2 patch inside the image.
    assert output[0, 0, 0, 0] == pytest.approx(inputs[0, 0, :2, :2].sum())


def test_bias_added_per_channel(gen):
    layer = conv(1, 2, 1, seed=0)
    layer.weight.value[...] = 0.0
    layer.bias.value[:] = [1.5, -2.0]
    output = layer.forward(np.zeros((1, 1, 3, 3)))
    assert np.allclose(output[0, 0], 1.5)
    assert np.allclose(output[0, 1], -2.0)


def test_gradients_match_numerical(gen):
    layer = conv(2, 3, 3, seed=1)
    inputs = gen.normal(size=(2, 2, 5, 5))
    check_layer_gradients(layer, inputs, (2, 3, 5, 5), gen, atol=1e-6)


def test_invalid_inputs_raise():
    """The UE network rejects a conv chain whose channels do not connect,
    and images of the wrong rank."""
    from repro.fleet.bank import ue_plan
    from repro.nn import ReLU, Sequential, Sigmoid
    from repro.split import ModelConfig
    from repro.split.ue import UEClient

    config = ModelConfig(
        image_height=8, image_width=8, pooling_height=8, pooling_width=8,
        cnn_channels=(2,),
    )
    broken = Sequential(
        [Conv2D(1, 2, 3), ReLU(), Conv2D(3, 1, 3), Sigmoid()]
    )
    with pytest.raises(ValueError, match="input channels"):
        ue_plan(broken, config)
    with pytest.raises(ValueError):
        UEClient(config, seed=0).forward(np.zeros((2, 8, 8)))  # wrong rank


def test_same_padding_requires_odd_kernel():
    with pytest.raises(ValueError):
        Conv2D(1, 1, 4)
