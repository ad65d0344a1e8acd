"""Multidimensional scaling (MDS).

The paper quantifies privacy leakage "with the inverse of the similarity
between each raw image sample and its feature map at the CNN output layer
measured by multidimensional scaling algorithm" (citing Hout et al., 2016).
This module implements :func:`classical_mds`, Torgerson's classical scaling
via eigendecomposition of the double-centred squared-distance matrix.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array (samples x features)")
    squared_norms = np.sum(points**2, axis=1)
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * points @ points.T
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def double_center(squared_distances: np.ndarray) -> np.ndarray:
    """Double-centre a squared-distance matrix (the Gram matrix of classical MDS)."""
    squared_distances = np.asarray(squared_distances, dtype=np.float64)
    count = squared_distances.shape[0]
    if squared_distances.shape != (count, count):
        raise ValueError("squared_distances must be square")
    centering = np.eye(count) - np.full((count, count), 1.0 / count)
    return -0.5 * centering @ squared_distances @ centering


def classical_mds(
    distances: np.ndarray, n_components: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """Classical (Torgerson) MDS embedding.

    Args:
        distances: symmetric pairwise distance matrix.
        n_components: embedding dimensionality.

    Returns:
        ``(embedding, eigenvalues)`` where ``embedding`` has shape
        ``(n, n_components)`` and ``eigenvalues`` are the (descending) top
        eigenvalues of the centred Gram matrix.  Non-positive eigenvalues
        contribute zero coordinates.
    """
    distances = np.asarray(distances, dtype=np.float64)
    count = distances.shape[0]
    if distances.shape != (count, count):
        raise ValueError("distances must be a square matrix")
    if n_components < 1 or n_components > count:
        raise ValueError("n_components must be in [1, n]")
    if not np.allclose(distances, distances.T, atol=1e-9):
        raise ValueError("distances must be symmetric")

    gram = double_center(distances**2)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    top_values = eigenvalues[order]
    top_vectors = eigenvectors[:, order]
    scales = np.sqrt(np.maximum(top_values, 0.0))
    return top_vectors * scales[None, :], top_values
