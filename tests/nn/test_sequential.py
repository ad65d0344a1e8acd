"""Tests for the Sequential container."""
import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

from tests.gradcheck import check_layer_gradients


@pytest.fixture()
def gen():
    return np.random.default_rng(23)


def build_mlp(seed=0):
    return Sequential(
        [Dense(6, 8, seed=seed), ReLU(), Dense(8, 2, seed=seed + 1)], name="mlp"
    )


def test_forward_chains_layers(gen):
    model = build_mlp()
    inputs = gen.normal(size=(4, 6))
    manual = model[2].forward(model[1].forward(model[0].forward(inputs)))
    assert np.allclose(model.forward(inputs), manual)


def test_len_getitem_iter():
    model = build_mlp()
    assert len(model) == 3
    assert isinstance(model[1], ReLU)
    assert [type(l).__name__ for l in model] == ["Dense", "ReLU", "Dense"]


def test_add_returns_self_for_chaining():
    model = Sequential()
    result = model.add(Dense(2, 2, seed=0)).add(ReLU())
    assert result is model
    assert len(model) == 2


def test_add_rejects_non_layer():
    with pytest.raises(TypeError):
        Sequential().add("not a layer")


def test_parameters_aggregated():
    model = build_mlp()
    expected = 6 * 8 + 8 + 8 * 2 + 2
    assert sum(p.value.size for p in model.parameters()) == expected
    assert len(list(model.parameters())) == 4


def test_named_parameters_unique_names():
    model = build_mlp()
    names = [name for name, _ in model.named_parameters()]
    assert len(names) == len(set(names))


def test_gradients_match_numerical(gen):
    model = Sequential([Dense(4, 5, seed=1), ReLU(), Dense(5, 3, seed=2)])
    inputs = gen.normal(size=(3, 4)) + 0.05
    check_layer_gradients(model, inputs, (3, 3), gen, atol=1e-5)


def test_cnn_pipeline_gradients(gen):
    model = Sequential(
        [Conv2D(1, 2, 3, padding=1, seed=3), ReLU(), Flatten(), Dense(2 * 16, 2, seed=4)]
    )
    inputs = gen.normal(size=(2, 1, 4, 4))
    check_layer_gradients(model, inputs, (2, 2), gen, atol=1e-5)


def test_zero_grad_clears_all(gen):
    model = build_mlp()
    inputs = gen.normal(size=(4, 6))
    from repro.nn import MeanSquaredError

    loss = MeanSquaredError()
    loss.forward(model.forward(inputs), gen.normal(size=(4, 2)))
    model.backward(loss.backward())
    assert any(np.any(p.grad != 0) for p in model.parameters())
    model.zero_grad()
    assert all(np.all(p.grad == 0) for p in model.parameters())


def test_state_dict_roundtrip(gen):
    model = build_mlp(seed=0)
    clone = build_mlp(seed=50)
    clone.load_state_dict(model.state_dict())
    inputs = gen.normal(size=(3, 6))
    assert np.allclose(model.forward(inputs), clone.forward(inputs))


def test_nested_sequential_state_dict(gen):
    inner = Sequential([Dense(3, 3, seed=1)], name="inner")
    outer = Sequential([inner, Dense(3, 2, seed=2)], name="outer")
    clone_inner = Sequential([Dense(3, 3, seed=7)], name="inner")
    clone = Sequential([clone_inner, Dense(3, 2, seed=8)], name="outer")
    clone.load_state_dict(outer.state_dict())
    inputs = gen.normal(size=(2, 3))
    assert np.allclose(outer.forward(inputs), clone.forward(inputs))
