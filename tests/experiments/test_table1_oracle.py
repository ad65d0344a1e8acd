"""``run_table1`` is bitwise the per-pooling oracle, with one CNN pass per cell.

The runner pools one CNN output per pooling and scores every pooling against
a single raw-image embedding with row-wise correlations;
``tests/experiments/table1_oracle.py`` does it the per-pooling way.  The
guards below pin the assumptions that make one pass valid: the CNN weights do
not depend on the pooling region, and a cell runs each conv layer once.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentScale, generate_dataset, run_table1
from repro.fleet import bank
from repro.privacy.leakage import (
    PrivacyLeakageEvaluator,
    _centered_rows,
    _row_correlations,
    correlation_leakage,
)
from repro.split.ue import UEClient

from tests.experiments.table1_oracle import (
    correlation_leakage_loop,
    run_table1_oracle,
    safe_correlation,
)


def _assert_matches_oracle(scale, dataset, monkeypatch):
    captured = []
    original = PrivacyLeakageEvaluator.evaluate_all

    def spy(self, raw_images, transmitted_list):
        results = original(self, raw_images, transmitted_list)
        captured.append(results)
        return results

    monkeypatch.setattr(PrivacyLeakageEvaluator, "evaluate_all", spy)
    result = run_table1(scale, dataset=dataset)
    monkeypatch.undo()
    expected, expected_leakages = run_table1_oracle(scale, dataset)

    assert result.poolings() == expected.poolings() == sorted(scale.valid_poolings())
    assert len(captured) == 1
    for pooling, leakage in zip(result.poolings(), captured[0]):
        assert dataclasses.asdict(result.rows[pooling]) == dataclasses.asdict(
            expected.rows[pooling]
        ), pooling
        reference = expected_leakages[pooling]
        assert np.array_equal(
            leakage.per_sample_similarity, reference.per_sample_similarity
        ), pooling
        assert leakage.leakage == reference.leakage
        assert leakage.num_samples == reference.num_samples


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scenario", ["paper_baseline", "dense_crowd", "long_corridor"])
def test_run_table1_equals_the_per_pooling_oracle_at_smoke(scenario, seed, monkeypatch):
    scale = ExperimentScale.smoke().with_scenario(scenario).with_seed(seed)
    _assert_matches_oracle(scale, generate_dataset(scale), monkeypatch)


def test_run_table1_equals_the_per_pooling_oracle_at_fast(
    fast_scale, fast_dataset, monkeypatch
):
    _assert_matches_oracle(fast_scale, fast_dataset, monkeypatch)


def test_one_table1_cell_runs_each_conv_layer_once(
    smoke_scale, smoke_dataset, monkeypatch
):
    """Counted at the UE network's one conv kernel, which every conv step of
    the plan calls once per pass."""
    calls = []
    original = bank.stacked_conv2d_forward

    def counting(weights, *args, **kwargs):
        calls.append(weights.shape)
        return original(weights, *args, **kwargs)

    monkeypatch.setattr(bank, "stacked_conv2d_forward", counting)
    conv_layers = len(smoke_scale.base_model_config().cnn_channels) + 1
    poolings = smoke_scale.valid_poolings()
    assert len(poolings) > 1
    for subset in (tuple(poolings), tuple(poolings[:1])):
        calls.clear()
        run_table1(smoke_scale, dataset=smoke_dataset, poolings=subset)
        assert len(calls) == conv_layers == len(set(calls)), (subset, calls)


@pytest.mark.parametrize("scale_name", ["smoke", "fast", "paper"])
def test_ue_cnn_weights_do_not_depend_on_the_pooling(scale_name):
    scale = getattr(ExperimentScale, scale_name)()
    config = scale.base_model_config()
    for seed in (0, 3):
        reference = UEClient(config, seed=seed).get_weights()
        for pooling in scale.valid_poolings():
            weights = UEClient(config.with_pooling(pooling), seed=seed).get_weights()
            assert weights.keys() == reference.keys()
            for key, value in reference.items():
                assert np.array_equal(weights[key], value), (pooling, key)


# -- row-wise correlations ------------------------------------------------------

_VALUES = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    st.sampled_from([0.0, 0.5, -2.0, 1.0]),
)


@st.composite
def _row_pairs(draw):
    """Two aligned ``(n, m)`` arrays with constant rows and sign flips mixed in."""
    count = draw(st.integers(1, 6))
    length = draw(st.integers(1, 24))
    values = st.lists(_VALUES, min_size=count * length, max_size=count * length)
    a = np.array(draw(values)).reshape(count, length)
    b = np.array(draw(values)).reshape(count, length)
    for row in range(count):
        kind = draw(st.sampled_from(["free", "constant_a", "constant_b", "negated"]))
        if kind == "constant_a":
            a[row] = a[row, 0]
        elif kind == "constant_b":
            b[row] = b[row, 0]
        elif kind == "negated":
            b[row] = -2.5 * a[row] + 1.0
    return a, b


@settings(max_examples=200, deadline=None)
@given(_row_pairs())
@example((np.array([[1.0, 2.0], [3.0, 3.0]]), np.array([[2.0, 1.0], [1.0, 5.0]])))
@example((np.array([[0.5, 0.5, 0.5]]), np.array([[0.5, 0.5, 0.5]])))
def test_row_correlations_equal_the_per_row_form_bitwise(pair):
    a, b = pair
    rows = _row_correlations(_centered_rows(a), _centered_rows(b))
    assert rows.shape == (len(a),)
    for index in range(len(a)):
        expected = safe_correlation(a[index], b[index])
        assert rows[index] == expected, (index, rows[index], expected)


@settings(max_examples=100, deadline=None)
@given(_row_pairs(), st.booleans())
def test_correlation_leakage_equals_the_per_sample_loop_bitwise(pair, pooled):
    a, b = pair
    count, length = a.shape
    raw = a.reshape(count, 1, length)
    maps = b.reshape(count, 1, length)
    if pooled and length % 2 == 0:
        maps = maps[:, :, : length // 2]
    assert correlation_leakage(raw, maps) == correlation_leakage_loop(raw, maps)


def test_correlation_leakage_of_constant_and_anti_correlated_samples():
    raw = np.array([[[1.0, 2.0], [3.0, 4.0]], [[2.0, 2.0], [2.0, 2.0]]])
    maps = np.array([[[-1.0, -2.0], [-3.0, -4.0]], [[1.0, 0.0], [0.0, 1.0]]])
    # |corr| of the first sample is 1; the constant second sample scores 0.
    value = correlation_leakage(raw, maps)
    assert value == correlation_leakage_loop(raw, maps)
    assert value == pytest.approx(0.5)
