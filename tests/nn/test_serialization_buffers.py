"""Round-trip serialization of the conv parameters and recurrent layers.

The vectorized code keeps transient work buffers: the im2col column buffers
and the zero-bordered padding buffers (of each conv's input and output
gradient) the UE network's plan keeps in its ``UEClient`` (``Conv2D`` itself keeps none), and the
preallocated state/gate caches on the recurrent cells.  These tests pin the
contract that ``state_dict`` — what a checkpoint's state-tree archive stores
— contains *only* trainable parameters and optimizer state, never the
transient caches, and that a freshly constructed layer or client loaded from
disk reproduces the original outputs exactly.
"""
import numpy as np
import pytest

from repro.nn import GRU, LSTM, Conv2D, Dense, SimpleRNN
from repro.nn.serialization import flatten_state_tree, load_state_tree, save_state_tree
from repro.split.config import ModelConfig, TrainingConfig
from repro.split.ue import UEClient


@pytest.fixture()
def sequence_inputs(rng):
    return rng.normal(size=(4, 6, 5))


def save_and_load(layer, path):
    """``layer``'s ``state_dict`` after a round trip through an archive."""
    save_state_tree(path, layer.state_dict())
    return load_state_tree(path)


def same_parameters(layer_a, layer_b):
    state_a, state_b = layer_a.state_dict(), layer_b.state_dict()
    return state_a.keys() == state_b.keys() and all(
        np.array_equal(state_a[key], state_b[key]) for key in state_a
    )


CONV_BUFFERS = ("cols", "padded", "grad_padded")

MODEL = ModelConfig(
    image_height=10,
    image_width=10,
    pooling_height=5,
    pooling_width=5,
    cnn_channels=(2,),
    sequence_length=2,
)


def trained_client(rng, seed=0):
    """A client after one forward and backward pass of its network."""
    client = UEClient(MODEL, TrainingConfig(), seed=seed)
    features = client.forward(rng.random((3, 2, 10, 10)))
    client.backward(rng.normal(size=features.shape))
    return client


def test_conv2d_state_excludes_im2col_buffer(tmp_path, rng):
    client = trained_client(rng)
    for buffer in CONV_BUFFERS:
        assert any(key.startswith(f"{buffer}/") for key in client._buffers), buffer

    # The client's UE state is its bank row: weights, Adam moments, steps.
    state = flatten_state_tree(client.bank.state_dict())
    assert all(key.startswith(("values/", "slot/", "step_counts")) for key in state)
    save_state_tree(tmp_path / "ue.npz", client.bank.state_dict())
    saved = load_state_tree(tmp_path / "ue.npz")

    clone = UEClient(MODEL, TrainingConfig(), seed=99)
    clone.bank.load_state_dict(saved)
    assert clone._buffers == {}, "loading must not create caches"
    images = rng.random((2, 2, 10, 10))
    assert np.array_equal(client.forward(images), clone.forward(images))


def test_conv2d_without_patch_cache_keeps_no_buffers(rng):
    """The parameters hold no scratch: every buffer is the client's."""
    client = trained_client(rng)
    for layer in client.cnn.layers:
        arrays = [
            name for name, value in vars(layer).items() if isinstance(value, np.ndarray)
        ]
        assert arrays == [], (layer.name, arrays)


def test_conv2d_state_dict_copies_are_independent():
    layer = Conv2D(2, 4, kernel_size=3, seed=0)
    state = layer.state_dict()
    state["weight"][:] = 0.0
    assert not np.allclose(layer.weight.value, 0.0)


@pytest.mark.parametrize("layer_cls", [SimpleRNN, GRU, LSTM])
def test_recurrent_state_excludes_step_caches(tmp_path, layer_cls, sequence_inputs):
    layer = layer_cls(5, 7, seed=1)
    layer.forward(sequence_inputs)
    assert layer._cache is not None, "forward must populate the step cache"

    state = layer.state_dict()
    for key, value in state.items():
        # Parameters only: no (T + 1, batch, H) state buffers may leak in.
        assert value.ndim <= 2, f"{key} looks like a cached state buffer"

    saved = save_and_load(layer, tmp_path / "recurrent.npz")
    assert set(saved) == set(state)

    clone = layer_cls(5, 7, seed=42)
    clone.load_state_dict(saved)
    assert same_parameters(layer, clone)
    assert clone._cache is None, "loading parameters must not create caches"
    assert np.allclose(layer.forward(sequence_inputs), clone.forward(sequence_inputs))


def test_roundtrip_after_backward_pass(tmp_path, rng):
    """Gradients accumulated on the source layer must not leak into the clone."""
    layer = trained_client(rng, seed=5).cnn.layers[0]
    assert any(np.abs(p.grad).sum() > 0 for p in layer.parameters())

    clone = Conv2D(1, 2, kernel_size=3, seed=6)
    clone.load_state_dict(save_and_load(layer, tmp_path / "trained-conv.npz"))
    assert same_parameters(layer, clone)
    for parameter in clone.parameters():
        assert np.allclose(parameter.grad, 0.0), "gradients must not be serialized"


def test_dense_and_recurrent_stack_roundtrip(tmp_path, rng, sequence_inputs):
    from repro.nn import Sequential

    model = Sequential([LSTM(5, 7, seed=2), Dense(7, 1, seed=3)])
    model.forward(sequence_inputs)
    saved = save_and_load(model, tmp_path / "stack.npz")

    clone = Sequential([LSTM(5, 7, seed=8), Dense(7, 1, seed=9)])
    clone.load_state_dict(saved)
    assert np.allclose(model.forward(sequence_inputs), clone.forward(sequence_inputs))
