"""Round-trip serialization of the vectorized Conv2D / recurrent layers.

The vectorized layers keep transient work buffers: the cached im2col column
buffer and the zero-bordered padding and dilation buffers on :class:`Conv2D`
(``cache_patches=True``) and the preallocated state/gate caches on the
recurrent cells.  These tests pin the contract that ``state_dict`` — what a
checkpoint's state-tree archive stores — contains *only* trainable
parameters, never the transient caches, and that a freshly constructed layer
loaded from disk reproduces the original outputs exactly.
"""
import numpy as np
import pytest

from repro.nn import GRU, LSTM, Conv2D, Dense, SimpleRNN
from repro.nn.serialization import load_state_tree, save_state_tree


@pytest.fixture()
def conv_inputs(rng):
    return rng.normal(size=(3, 2, 10, 10))


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


CONV_BUFFERS = ("_cols", "_padded", "_dilated")


def test_conv2d_state_excludes_im2col_buffer(tmp_path, rng, conv_inputs):
    layer = Conv2D(2, 4, kernel_size=3, padding="same", cache_patches=True, seed=0)
    outputs = layer.forward(conv_inputs)
    layer.backward(rng.normal(size=outputs.shape))
    for buffer in CONV_BUFFERS:
        assert getattr(layer, buffer) is not None, f"{buffer} was not populated"

    expected_keys = {"weight", "bias"}
    assert set(layer.state_dict()) == expected_keys

    saved = save_and_load(layer, tmp_path / "conv.npz")
    assert set(saved) == expected_keys

    clone = Conv2D(2, 4, kernel_size=3, padding="same", cache_patches=True, seed=99)
    assert not same_parameters(layer, clone)
    clone.load_state_dict(saved)
    assert same_parameters(layer, clone)
    for buffer in CONV_BUFFERS:
        assert getattr(clone, buffer) is None, "loading must not create caches"
    assert np.allclose(layer.forward(conv_inputs), clone.forward(conv_inputs))


def test_conv2d_without_patch_cache_keeps_no_buffers(rng, conv_inputs):
    layer = Conv2D(2, 4, kernel_size=3, padding="same", cache_patches=False, seed=0)
    outputs = layer.forward(conv_inputs)
    layer.backward(rng.normal(size=outputs.shape))
    assert layer._padded is None and layer._dilated is None


def test_conv2d_state_dict_copies_are_independent(conv_inputs):
    layer = Conv2D(2, 4, kernel_size=3, seed=0)
    layer.forward(conv_inputs)
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


def test_roundtrip_after_backward_pass(tmp_path, rng, conv_inputs):
    """Gradients accumulated on the source layer must not leak into the clone."""
    layer = Conv2D(2, 3, kernel_size=3, seed=5)
    outputs = layer.forward(conv_inputs)
    layer.backward(rng.normal(size=outputs.shape))
    assert any(np.abs(p.grad).sum() > 0 for p in layer.parameters())

    clone = Conv2D(2, 3, kernel_size=3, seed=6)
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
