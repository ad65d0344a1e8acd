"""Optimizer state round-trips: restore must continue the exact trajectory."""
import numpy as np
import pytest

from repro.nn import Adam, Parameter

OPTIMIZERS = {
    "adam": {"beta1": 0.85, "beta2": 0.98, "epsilon": 1e-9},
}


def make_parameters(rng):
    return [
        Parameter("weight", rng.normal(size=(4, 3))),
        Parameter("bias", rng.normal(size=(3,))),
    ]


def drive(optimizer, parameters, gradients):
    for step_gradients in gradients:
        for parameter, gradient in zip(parameters, step_gradients):
            parameter.grad = gradient.copy()
        optimizer.step()


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_state_roundtrip_step_after_restore_matches(name):
    """Save mid-run, restore into a fresh optimizer, step: exact equality."""
    rng = np.random.default_rng(3)
    parameters = make_parameters(rng)
    optimizer = Adam(parameters, learning_rate=0.02, **OPTIMIZERS[name])
    warmup = [[rng.normal(size=p.value.shape) for p in parameters] for _ in range(5)]
    drive(optimizer, parameters, warmup)

    state = optimizer.state_dict()
    frozen_values = [p.value.copy() for p in parameters]

    # Continue the original run for three more steps.
    tail = [[rng.normal(size=p.value.shape) for p in parameters] for _ in range(3)]
    drive(optimizer, parameters, tail)
    expected = [p.value.copy() for p in parameters]

    # Fresh optimizer with different hyper-parameters, restored mid-run.
    restored_parameters = [
        Parameter(p.name, value) for p, value in zip(parameters, frozen_values)
    ]
    restored = Adam(restored_parameters, learning_rate=0.5)
    restored.load_state_dict(state)
    assert restored.step_count == 5
    assert restored.learning_rate == pytest.approx(0.02)
    for hyper, value in OPTIMIZERS[name].items():
        assert getattr(restored, hyper) == pytest.approx(value)
    drive(restored, restored_parameters, tail)
    for parameter, value in zip(restored_parameters, expected):
        assert np.array_equal(parameter.value, value)


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_state_dict_is_a_copy(name):
    rng = np.random.default_rng(1)
    parameters = make_parameters(rng)
    optimizer = Adam(parameters, learning_rate=0.01)
    drive(optimizer, parameters, [[rng.normal(size=p.value.shape) for p in parameters]])
    state = optimizer.state_dict()
    before = {key: np.asarray(value).copy() for key, value in state.items()}
    drive(optimizer, parameters, [[rng.normal(size=p.value.shape) for p in parameters]])
    for key, value in state.items():
        assert np.array_equal(np.asarray(value), before[key]), key


def test_load_state_dict_rejects_missing_and_extra_entries():
    rng = np.random.default_rng(0)
    adam = Adam(make_parameters(rng), learning_rate=0.01)
    state = adam.state_dict()
    incomplete = dict(state)
    incomplete.pop("slot/first_moment/0")
    with pytest.raises(KeyError, match="first_moment"):
        adam.load_state_dict(incomplete)
    extra = dict(state)
    extra["slot/first_moment/7"] = np.zeros(3)
    with pytest.raises(ValueError, match="unexpected"):
        adam.load_state_dict(extra)


def test_load_state_dict_rejects_wrong_optimizer_kind():
    """A state dict from another optimizer (here RMSProp-shaped) is refused."""
    rng = np.random.default_rng(0)
    adam = Adam(make_parameters(rng), learning_rate=0.01)
    foreign = {
        "step_count": np.asarray(3),
        "hyper/learning_rate": np.asarray(0.01),
        "hyper/decay": np.asarray(0.95),
        "hyper/epsilon": np.asarray(1e-7),
        "slot/square_average/0": np.zeros((4, 3)),
        "slot/square_average/1": np.zeros(3),
    }
    with pytest.raises((KeyError, ValueError)):
        adam.load_state_dict(foreign)


def test_load_state_dict_rejects_shape_mismatch():
    rng = np.random.default_rng(0)
    adam = Adam(make_parameters(rng), learning_rate=0.01)
    state = adam.state_dict()
    state["slot/first_moment/0"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        adam.load_state_dict(state)
