"""Tests for classical multidimensional scaling."""
import numpy as np
import pytest

from repro.privacy import classical_mds, double_center, pairwise_distances


@pytest.fixture()
def gen():
    return np.random.default_rng(19)


def test_pairwise_distances_known_values():
    points = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
    distances = pairwise_distances(points)
    assert distances.shape == (3, 3)
    assert np.allclose(np.diag(distances), 0.0)
    assert distances[0, 1] == pytest.approx(5.0)
    assert distances[0, 2] == pytest.approx(4.0)
    assert np.allclose(distances, distances.T)


def test_pairwise_distances_validation():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros(5))


def test_double_center_rows_and_columns_sum_to_zero(gen):
    points = gen.normal(size=(6, 3))
    squared = pairwise_distances(points) ** 2
    gram = double_center(squared)
    assert np.allclose(gram.sum(axis=0), 0.0, atol=1e-9)
    assert np.allclose(gram.sum(axis=1), 0.0, atol=1e-9)


def test_classical_mds_recovers_planar_configuration(gen):
    # Points genuinely in 2-D: classical MDS must reproduce their distances.
    points = gen.normal(size=(10, 2))
    distances = pairwise_distances(points)
    embedding, eigenvalues = classical_mds(distances, n_components=2)
    assert embedding.shape == (10, 2)
    assert np.allclose(pairwise_distances(embedding), distances, atol=1e-6)
    assert eigenvalues[0] > 0


def test_classical_mds_eigenvalues_sorted(gen):
    points = gen.normal(size=(8, 5))
    _, eigenvalues = classical_mds(pairwise_distances(points), n_components=3)
    assert np.all(np.diff(eigenvalues) <= 1e-9)


def test_classical_mds_validation(gen):
    distances = pairwise_distances(gen.normal(size=(5, 2)))
    with pytest.raises(ValueError):
        classical_mds(distances, n_components=0)
    with pytest.raises(ValueError):
        classical_mds(distances, n_components=9)
    with pytest.raises(ValueError):
        classical_mds(np.ones((3, 4)))
    asymmetric = distances.copy()
    asymmetric[0, 1] += 1.0
    with pytest.raises(ValueError):
        classical_mds(asymmetric)
