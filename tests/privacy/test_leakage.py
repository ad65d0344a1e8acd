"""Tests for the privacy-leakage metric."""
import numpy as np
import pytest

from repro.privacy import (
    PrivacyLeakageEvaluator,
    correlation_leakage,
    upsample_feature_maps,
)
from repro.split import ModelConfig, UEClient


@pytest.fixture()
def gen():
    return np.random.default_rng(29)


def pool(images, size):
    count, height, width = images.shape
    return images.reshape(count, height // size, size, width // size, size).mean(axis=(2, 4))


def test_upsample_feature_maps_shapes_and_values(gen):
    maps = gen.random((3, 2, 2))
    upsampled = upsample_feature_maps(maps, (8, 8))
    assert upsampled.shape == (3, 8, 8)
    assert np.allclose(upsampled[:, :4, :4], maps[:, :1, :1].repeat(4, 1).repeat(4, 2))


def test_upsample_validation(gen):
    with pytest.raises(ValueError):
        upsample_feature_maps(gen.random((3, 3, 3)), (8, 8))
    with pytest.raises(ValueError):
        upsample_feature_maps(gen.random((3, 3)), (6, 6))


def test_identity_representation_has_high_leakage(gen):
    images = gen.random((30, 8, 8))
    evaluator = PrivacyLeakageEvaluator(seed=0)
    result = evaluator.evaluate(images, images.copy())
    assert result.leakage > 0.9
    assert result.num_samples == 30
    assert result.per_sample_similarity.shape == (30,)


def test_constant_representation_has_low_leakage(gen):
    images = gen.random((30, 8, 8))
    constant = np.ones((30, 1, 1)) * 0.5
    evaluator = PrivacyLeakageEvaluator(seed=0)
    result = evaluator.evaluate(images, constant)
    assert result.leakage < 0.6


def test_leakage_decreases_with_pooling_size(gen, small_dataset):
    # Use frames with actual content (pedestrians in view); long stretches of
    # the empty corridor are identical images and carry no private information.
    interesting = np.flatnonzero(small_dataset.line_of_sight_blocked)[:60]
    assert len(interesting) >= 10
    images = small_dataset.images[interesting]
    evaluator = PrivacyLeakageEvaluator(seed=0)
    leakages = []
    for size in (1, 2, 6, 12):
        pooled = pool(images, size)
        leakages.append(evaluator.evaluate(images, pooled).leakage)
    tolerance = 1e-6
    assert leakages[0] >= leakages[1] - tolerance
    assert leakages[1] >= leakages[2] - tolerance
    assert leakages[2] >= leakages[3] - tolerance
    assert leakages[0] > leakages[-1]


def test_leakage_in_unit_interval(gen):
    images = gen.random((25, 6, 6))
    noise = gen.random((25, 6, 6))
    result = PrivacyLeakageEvaluator(seed=0).evaluate(images, noise)
    assert 0.0 <= result.leakage <= 1.0


def test_leakage_subsampling_cap(gen):
    images = gen.random((100, 6, 6))
    evaluator = PrivacyLeakageEvaluator(max_samples=20, seed=0)
    result = evaluator.evaluate(images, images)
    assert result.num_samples == 20


def test_leakage_validation(gen):
    evaluator = PrivacyLeakageEvaluator(seed=0)
    with pytest.raises(ValueError):
        evaluator.evaluate(gen.random((5, 4, 4)), gen.random((4, 4, 4)))
    with pytest.raises(ValueError):
        evaluator.evaluate(gen.random((1, 4, 4)), gen.random((1, 4, 4)))
    with pytest.raises(ValueError):
        PrivacyLeakageEvaluator(max_samples=1)
    with pytest.raises(ValueError):
        PrivacyLeakageEvaluator(n_components=0)


def test_correlation_leakage_bounds_and_identity(gen):
    images = gen.random((20, 6, 6))
    assert correlation_leakage(images, images) == pytest.approx(1.0)
    constant = np.full((20, 1, 1), 0.3)
    assert correlation_leakage(images, constant) == pytest.approx(0.0)
    value = correlation_leakage(images, pool(images, 2))
    assert 0.0 <= value <= 1.0


def test_leakage_with_ue_client(small_dataset):
    """End-to-end: the representation actually transmitted by a UE client.

    With an untrained CNN at the tiny 12x12 test resolution the relative
    ordering between pooling sizes is not guaranteed (the random filters
    inject high-frequency noise that pooling partially removes), so this test
    only checks the well-defined bounds: every leakage lies in [0, 1] and no
    transmitted representation leaks more than the raw image itself.
    """
    interesting = np.flatnonzero(small_dataset.line_of_sight_blocked)[:50]
    images = small_dataset.images[interesting]
    config = ModelConfig(
        image_height=12, image_width=12, pooling_height=1, pooling_width=1,
        cnn_channels=(2,),
    )
    evaluator = PrivacyLeakageEvaluator(seed=0)
    identity = evaluator.evaluate(images, images).leakage
    fine_client = UEClient(config, seed=0)
    coarse_client = UEClient(config.with_pooling(12), seed=0)
    fine = evaluator.evaluate(images, fine_client.compressed_images(images))
    coarse = evaluator.evaluate(images, coarse_client.compressed_images(images))
    for value in (fine.leakage, coarse.leakage):
        assert 0.0 <= value <= identity + 1e-9
    assert identity > 0.9


def _assert_same_result(result, expected):
    assert result.leakage == expected.leakage
    assert np.array_equal(result.per_sample_similarity, expected.per_sample_similarity)
    assert (result.num_samples, result.mds_dimensions) == (
        expected.num_samples,
        expected.mds_dimensions,
    )


@pytest.mark.parametrize("max_samples", [200, 17])
def test_evaluate_all_equals_evaluate_per_map_with_an_int_seed(gen, max_samples):
    images = gen.random((40, 8, 8))
    transmitted = [images, pool(images, 2), pool(images, 8), gen.random((40, 4, 4))]
    evaluator = PrivacyLeakageEvaluator(max_samples=max_samples, seed=3)
    results = evaluator.evaluate_all(images, transmitted)
    assert len(results) == len(transmitted)
    for result, maps in zip(results, transmitted):
        assert result.num_samples == min(max_samples, 40)
        _assert_same_result(result, evaluator.evaluate(images, maps))


def test_evaluate_all_draws_one_subsample_per_call_from_a_generator(gen):
    images = gen.random((40, 6, 6))
    maps = pool(images, 3)
    rng = np.random.default_rng(4)
    evaluator = PrivacyLeakageEvaluator(max_samples=10, seed=rng)
    first, second = evaluator.evaluate_all(images, [maps, maps])
    # Both maps were scored on the one subset the call drew ...
    _assert_same_result(first, second)
    reference = np.random.default_rng(4)
    reference.choice(40, size=10, replace=False)
    assert rng.bit_generator.state == reference.bit_generator.state
    # ... and the next call draws its own.
    evaluator.evaluate(images, maps)
    reference.choice(40, size=10, replace=False)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_evaluate_all_validates_every_map(gen):
    evaluator = PrivacyLeakageEvaluator(seed=0)
    images = gen.random((5, 4, 4))
    with pytest.raises(ValueError):
        evaluator.evaluate_all(images, [images, gen.random((4, 4, 4))])
    with pytest.raises(ValueError):
        evaluator.evaluate_all(images, [images, gen.random((5, 16))])
    assert evaluator.evaluate_all(images, []) == []
