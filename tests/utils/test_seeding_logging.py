"""Tests for seeding helpers and the library logger."""
import numpy as np
import pytest

from repro.utils import (
    as_generator,
    capture_generator_state,
    get_logger,
    restore_generator_state,
    spawn_generators,
)


def test_as_generator_from_int_is_deterministic():
    a = as_generator(42).random(5)
    b = as_generator(42).random(5)
    assert np.allclose(a, b)


def test_as_generator_passthrough():
    generator = np.random.default_rng(0)
    assert as_generator(generator) is generator


def test_as_generator_none_gives_fresh_entropy():
    a = as_generator(None).random(5)
    b = as_generator(None).random(5)
    assert not np.allclose(a, b)


def test_as_generator_accepts_seed_sequence():
    sequence = np.random.SeedSequence(7)
    a = as_generator(sequence)
    assert isinstance(a, np.random.Generator)


def test_as_generator_rejects_strings():
    with pytest.raises(TypeError):
        as_generator("seed")


def test_spawn_generators_independent_and_deterministic():
    children_a = spawn_generators(5, 3)
    children_b = spawn_generators(5, 3)
    assert len(children_a) == 3
    for a, b in zip(children_a, children_b):
        assert np.allclose(a.random(4), b.random(4))
    # Streams should differ from one another.
    assert not np.allclose(children_a[0].random(4), children_a[1].random(4))


def test_spawn_generators_from_generator():
    parent = np.random.default_rng(0)
    children = spawn_generators(parent, 2)
    assert len(children) == 2


def test_spawn_generators_negative_count():
    with pytest.raises(ValueError):
        spawn_generators(0, -1)


def test_capture_restore_generator_state_resumes_stream():
    generator = as_generator(123)
    generator.random(10)  # advance mid-stream
    state = capture_generator_state(generator)
    expected = generator.random(5)
    other = as_generator(999)
    restore_generator_state(other, state)
    assert np.array_equal(other.random(5), expected)


def test_captured_state_survives_json_roundtrip():
    import json

    generator = as_generator(5)
    state = json.loads(json.dumps(capture_generator_state(generator)))
    expected = generator.random(4)
    restored = restore_generator_state(as_generator(0), state)
    assert np.array_equal(restored.random(4), expected)


def test_capture_restore_reject_non_generators():
    with pytest.raises(TypeError):
        capture_generator_state(42)
    with pytest.raises(TypeError):
        restore_generator_state("rng", {})


def test_get_logger_namespacing():
    assert get_logger().name == "repro"
    assert get_logger("split.trainer").name == "repro.split.trainer"
