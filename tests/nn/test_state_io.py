"""Tests for the unified save_state/load_state and the state-tree archive."""
import os

import numpy as np
import pytest

from repro.nn import Adam, Dense, Sequential, load_parameters, save_parameters
from repro.nn.serialization import (
    flatten_state_tree,
    load_state,
    load_state_tree,
    parameters_allclose,
    save_state,
    save_state_tree,
    unflatten_state_tree,
)
from repro.utils import as_generator, capture_generator_state


def small_model(seed=0):
    return Sequential([Dense(4, 3, seed=seed, name="d0"), Dense(3, 1, seed=seed + 1, name="d1")])


# -- state trees ---------------------------------------------------------------------


def test_state_tree_roundtrip(tmp_path):
    rng_state = capture_generator_state(as_generator(7))
    tree = {
        "arrays": {"x": np.arange(6.0).reshape(2, 3), "y": np.zeros(0)},
        "meta": {"count": 3, "label": "run", "ratio": 0.5, "flag": True, "none": None},
        "records": [{"epoch": 1, "loss": float("nan")}, {"epoch": 2, "loss": 0.25}],
        "rng": rng_state,
        "empty": {},
    }
    path = save_state_tree(tmp_path / "tree", tree)
    assert path.endswith(".npz")
    back = load_state_tree(path)
    assert np.array_equal(back["arrays"]["x"], tree["arrays"]["x"])
    assert back["arrays"]["y"].size == 0
    assert back["meta"] == tree["meta"]
    assert back["records"][0]["loss"] != back["records"][0]["loss"]  # NaN survives
    assert back["records"][1] == {"epoch": 2, "loss": 0.25}
    assert back["rng"] == rng_state  # big ints exact through JSON
    assert back["empty"] == {}


def test_flatten_rejects_reserved_keys():
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"a//b": np.zeros(1)})
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"a:json": np.zeros(1)})
    with pytest.raises(TypeError):
        flatten_state_tree({1: np.zeros(1)})


def test_flatten_names_the_key_path_of_an_array_inside_a_list():
    with pytest.raises(TypeError, match=r"'run//records'.*ndarray inside a list"):
        flatten_state_tree(
            {"run": {"weights": np.ones(2), "records": [1, np.zeros(3)]}}
        )
    with pytest.raises(TypeError, match=r"'pairs'.*ndarray inside a list"):
        flatten_state_tree({"pairs": (np.zeros(1), np.ones(1))})
    with pytest.raises(TypeError, match=r"'meta'.*int64, which is not JSON"):
        flatten_state_tree({"meta": {"count": np.int64(3)}})


def test_flatten_checks_keys_of_array_holding_mappings_only():
    # A plain-data mapping is one JSON leaf, so JSON's own key rules apply.
    flat = flatten_state_tree({"meta": {1: "one"}, "x": np.zeros(1)})
    assert unflatten_state_tree(flat)["meta"] == {"1": "one"}
    with pytest.raises(ValueError, match="reserved"):
        flatten_state_tree({"outer": {"a//b": np.zeros(1)}})
    with pytest.raises(TypeError, match="non-empty str"):
        flatten_state_tree({"": 1})


def test_unflatten_inverts_flatten():
    tree = {"a": {"b": {"c": np.ones(2)}, "n": 4}, "top": "x"}
    assert set(unflatten_state_tree(flatten_state_tree(tree))) == {"a", "top"}


def test_load_state_tree_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_state_tree(tmp_path / "nope.npz")


# -- unified training state ----------------------------------------------------------


def test_save_state_restores_model_optimizer_and_rng(tmp_path):
    model = small_model(seed=0)
    optimizer = Adam(model.parameters(), learning_rate=3e-3)
    rng = as_generator(11)
    rng.normal(size=4)  # advance the stream
    for parameter in model.parameters():
        parameter.grad = np.ones_like(parameter.value)
    optimizer.step()

    path = save_state(
        tmp_path / "state", model=model, optimizer=optimizer, rng=rng,
        extra={"epoch": 7},
    )

    other = small_model(seed=9)
    other_optimizer = Adam(other.parameters(), learning_rate=0.9)
    other_rng = as_generator(0)
    tree = load_state(path, model=other, optimizer=other_optimizer, rng=other_rng)
    assert parameters_allclose(model, other)
    assert other_optimizer.step_count == 1
    assert other_optimizer.learning_rate == pytest.approx(3e-3)
    assert np.array_equal(other_rng.normal(size=3), rng.normal(size=3))
    assert tree["extra"]["epoch"] == 7


def test_save_state_requires_something():
    with pytest.raises(ValueError, match="nothing to save"):
        save_state("unused")


def test_load_state_missing_section(tmp_path):
    model = small_model()
    path = save_state(tmp_path / "weights-only", model=model)
    with pytest.raises(KeyError, match="optimizer"):
        load_state(path, optimizer=Adam(model.parameters(), learning_rate=1e-3))


# -- atomic parameter files ----------------------------------------------------------


def test_save_parameters_is_atomic_and_leaves_no_tmp_files(tmp_path):
    model = small_model()
    target = tmp_path / "weights.npz"
    save_parameters(model, target)
    # Overwrite with different values: the final file is always complete.
    for parameter in model.parameters():
        parameter.value += 1.0
    save_parameters(model, target)
    leftovers = [name for name in os.listdir(tmp_path) if "tmp" in name]
    assert leftovers == []
    fresh = small_model(seed=5)
    load_parameters(fresh, target)
    assert parameters_allclose(model, fresh)


def test_save_parameters_appends_npz_suffix(tmp_path):
    model = small_model()
    save_parameters(model, tmp_path / "weights")
    assert (tmp_path / "weights.npz").exists()
    fresh = small_model(seed=5)
    load_parameters(fresh, tmp_path / "weights")
    assert parameters_allclose(model, fresh)
