"""The UE network at one member: ``UEClient`` against the per-member oracle.

``UEClient`` runs the same plan as the training bank
(:func:`repro.fleet.bank.ue_plan` / ``ue_forward`` / ``ue_backward``) at one
member, for evaluation, Fig. 2, Fig. 3b and Table 1.  These tests pin that
path bitwise to the layer-by-layer loop references of
:class:`~tests.fleet.member_loop_oracle.MemberNetwork`, check its gradients
against central differences, and pin the plan's checks and the client's
buffer reuse.
"""
import dataclasses

import numpy as np
import pytest

from repro.fleet.bank import ue_plan
from repro.nn import Conv2D, Dense, ReLU, Sequential, Sigmoid, average_pool
from repro.split import ModelConfig, TrainingConfig
from repro.split.ue import UEClient

from tests.fleet.member_loop_oracle import MemberNetwork

BASE = ModelConfig(
    image_height=12,
    image_width=12,
    pooling_height=4,
    pooling_width=4,
    cnn_channels=(3,),
    sequence_length=2,
)

CONFIGS = [
    pytest.param(BASE, id="4x4-one-hidden"),
    pytest.param(BASE.with_pooling(12), id="1pixel"),
    pytest.param(BASE.with_pooling(1), id="full-resolution"),
    pytest.param(dataclasses.replace(BASE, cnn_channels=()), id="no-hidden"),
    pytest.param(dataclasses.replace(BASE, cnn_channels=(3, 2)), id="two-hidden"),
]


@pytest.mark.parametrize("config", CONFIGS)
def test_one_member_matches_the_member_oracle_bitwise(config):
    rng = np.random.default_rng(8)
    client = UEClient(config, TrainingConfig(), seed=4)
    oracle = MemberNetwork(client)
    for batch in (5, 5, 3):  # equal chunks reuse the buffers, then a new size
        images = rng.random((batch, config.sequence_length, 12, 12))
        features = client.forward(images)
        assert np.array_equal(features, oracle.forward(images))
        gradient = rng.standard_normal(features.shape)
        client.cnn.zero_grad()
        oracle.zero_grad()
        client.backward(gradient)
        oracle.backward(gradient)
        for param, expected in zip(client.cnn.parameters(), oracle.parameters):
            assert np.array_equal(param.grad, expected.grad), param.name


def test_output_and_compressed_images_follow_the_forward():
    rng = np.random.default_rng(2)
    client = UEClient(BASE, seed=1)
    images = rng.random((6, 12, 12))
    compressed = client.compressed_images(images)
    assert compressed.shape == (6, 3, 3)
    features = client.forward(images[:, None])
    assert np.array_equal(compressed.reshape(6, 1, -1), features)
    output = client.output_images(images)
    assert output.shape == (6, 12, 12)
    pooled = average_pool(output[:, None], 4)[:, 0]
    assert np.array_equal(pooled, compressed)


def test_ue_network_gradients_match_numerical(gradcheck):
    """Conv, ReLU, conv, sigmoid and pooling, end to end, at one member."""
    rng = np.random.default_rng(6)
    model = dataclasses.replace(BASE, image_height=8, image_width=8, cnn_channels=(2,))
    client = UEClient(model, TrainingConfig(), seed=2)
    images = rng.random((2, 2, 8, 8))
    weights = rng.normal(size=(2, 2, 4))

    def loss():
        return float(np.sum(weights * client.forward(images)))

    loss()
    client.backward(weights)
    for name, parameter in client.cnn.named_parameters():
        numerical = gradcheck.parameter_gradient(loss, parameter)
        assert np.max(np.abs(numerical - parameter.grad)) < 1e-6, name


def test_plan_rejects_a_network_it_cannot_run():
    def cnn(*layers):
        return Sequential(list(layers))

    with pytest.raises(ValueError, match="cannot run CNN layer Dense"):
        ue_plan(cnn(Dense(4, 4), Sigmoid()), BASE)
    with pytest.raises(ValueError, match="output image"):
        ue_plan(cnn(Conv2D(1, 2, 3), ReLU()), BASE)
    with pytest.raises(ValueError, match="start with a conv"):
        ue_plan(cnn(ReLU(), Conv2D(1, 1, 3), Sigmoid()), BASE)
    with pytest.raises(ValueError, match="end in a conv and a sigmoid"):
        ue_plan(cnn(Conv2D(1, 1, 3), ReLU()), BASE)
    with pytest.raises(ValueError, match="end in a conv and a sigmoid"):
        ue_plan(cnn(Conv2D(1, 1, 3), Sigmoid(), Sigmoid()), BASE)


def test_client_reuses_its_buffers_across_equal_chunks():
    rng = np.random.default_rng(4)
    client = UEClient(BASE, seed=0)
    oracle = MemberNetwork(client)
    client.forward(rng.random((4, 2, 12, 12)))
    cols, padded = client._buffers["cols/0"], client._buffers["padded/0"]
    images = rng.random((4, 2, 12, 12))
    features = client.forward(images)
    assert client._buffers["cols/0"] is cols  # same geometry: buffers reused
    assert client._buffers["padded/0"] is padded
    border = padded.copy()
    border[:, :, 1:-1, 1:-1] = 0.0
    assert not border.any()  # only the interior is ever written
    assert np.array_equal(features, oracle.forward(images))
    smaller = rng.random((1, 2, 12, 12))  # a new geometry reallocates
    assert np.array_equal(client.forward(smaller), oracle.forward(smaller))
    assert client._buffers["cols/0"] is not cols
