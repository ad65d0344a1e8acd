"""Privacy-leakage metric for the transmitted cut-layer images (Table 1).

The paper quantifies how much private visual information the UE exposes by
comparing each raw depth image with the (pooled) CNN output image that is
actually transmitted, using a multidimensional-scaling (MDS) similarity in the
spirit of Hout et al. (2016).  Heavier pooling destroys more of the raw-image
structure, so the transmitted representation becomes less similar to the raw
image and the leakage decreases — which is the trend reported in Table 1
(leakage 0.353 at 1x1 pooling down to 0.296 at 40x40 / one-pixel pooling).

Concretely, :class:`PrivacyLeakageEvaluator` proceeds as follows:

1. Upsample every transmitted feature map back to the raw-image resolution
   (this is the best reconstruction available to an eavesdropper who knows
   the pooling geometry).
2. Embed the raw images and the reconstructions separately with classical MDS
   into a low-dimensional perceptual space.  The raw side is embedded once
   per :meth:`PrivacyLeakageEvaluator.evaluate_all` call and shared by every
   transmitted map of that call (Table 1 scores all its poolings in one call).
3. For every sample, correlate its vector of embedding distances to all other
   samples between the two spaces: the per-sample similarity measures how
   faithfully the transmitted representation preserves the sample's relations
   to the rest of the dataset (which is exactly what an eavesdropper needs to
   re-identify content).
4. Report the mean similarity as the privacy leakage: 1 means the transmitted
   representation preserves the raw images' structure perfectly (maximal
   leakage), 0 means no recoverable structure.

The per-sample correlations here and in :func:`correlation_leakage` are
computed row-wise over whole arrays, bit for bit equal to correlating one
sample's 1-D vectors at a time (row means sum pairwise like a 1-D mean, and
row products reduce through the same ``ddot``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.privacy.mds import classical_mds, pairwise_distances
from repro.utils.seeding import SeedLike, as_generator


def upsample_feature_maps(feature_maps: np.ndarray, target_shape) -> np.ndarray:
    """Nearest-neighbour upsampling of pooled feature maps to the raw size.

    Args:
        feature_maps: array of shape ``(N, h, w)``.
        target_shape: ``(H, W)`` with ``H % h == 0`` and ``W % w == 0``.
    """
    feature_maps = np.asarray(feature_maps, dtype=np.float64)
    if feature_maps.ndim != 3:
        raise ValueError("feature_maps must have shape (N, h, w)")
    target_height, target_width = int(target_shape[0]), int(target_shape[1])
    _, height, width = feature_maps.shape
    if target_height % height != 0 or target_width % width != 0:
        raise ValueError(
            f"target shape {target_shape} is not a multiple of the feature map "
            f"shape {(height, width)}"
        )
    return np.repeat(
        np.repeat(feature_maps, target_height // height, axis=1),
        target_width // width,
        axis=2,
    )


def _centered_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row minus its mean, and the centered rows' L2 norms.

    ``mean(axis=1)`` sums each contiguous row pairwise like a 1-D mean, and
    the stacked ``matmul`` lowers every row product to the same ``ddot`` as
    ``np.linalg.norm`` of one row, so both match the per-row form bit for bit.
    """
    centered = rows - rows.mean(axis=1, keepdims=True)
    return centered, np.sqrt(_row_dots(centered, centered))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_correlations(
    a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Pearson correlation of each row pair of two :func:`_centered_rows`.

    A row whose norm is exactly zero (a constant row) correlates 0.
    """
    (a_centered, a_norms), (b_centered, b_norms) = a, b
    products = a_norms * b_norms
    zero = (
        (a_norms == 0.0)  # repro: noqa[HYG001] -- exact zero-norm guard
        | (b_norms == 0.0)  # repro: noqa[HYG001] -- exact zero-norm guard
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, 0.0, _row_dots(a_centered, b_centered) / products)


def _standardize_set(flat: np.ndarray) -> np.ndarray:
    """Zero-mean (over samples), unit-global-std standardization of one modality."""
    centered = flat - flat.mean(axis=0, keepdims=True)
    scale = centered.std()
    if scale <= 0:
        return centered
    return centered / scale


@dataclass
class LeakageResult:
    """Per-configuration privacy-leakage outcome."""

    leakage: float
    per_sample_similarity: np.ndarray
    mds_dimensions: int
    num_samples: int


@dataclass
class PrivacyLeakageEvaluator:
    """MDS-based privacy-leakage metric.

    Attributes:
        n_components: dimensionality of the MDS embedding space.
        max_samples: images are subsampled to at most this many pairs before
            building the (quadratic-size) distance matrix.
        seed: RNG seed for the subsampling.
    """

    n_components: int = 2
    max_samples: int = 200
    seed: SeedLike = None

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.max_samples < 2:
            raise ValueError("max_samples must be >= 2")

    def _subsample(self, count: int) -> np.ndarray:
        if count <= self.max_samples:
            return np.arange(count)
        rng = as_generator(self.seed)
        return np.sort(rng.choice(count, size=self.max_samples, replace=False))

    def _embedding_distances(self, flat: np.ndarray) -> np.ndarray:
        """Inter-sample distances in the classical-MDS embedding of one modality."""
        count = len(flat)
        embedding, _ = classical_mds(
            pairwise_distances(_standardize_set(flat)),
            min(self.n_components, count - 1),
        )
        return pairwise_distances(embedding)

    def evaluate(
        self,
        raw_images: np.ndarray,
        transmitted_maps: np.ndarray,
    ) -> LeakageResult:
        """Compute the leakage of ``transmitted_maps`` w.r.t. ``raw_images``.

        Args:
            raw_images: array of shape ``(N, H, W)``.
            transmitted_maps: array of shape ``(N, h, w)`` with ``H % h == 0``
                and ``W % w == 0`` (the pooled CNN output images).
        """
        return self.evaluate_all(raw_images, [transmitted_maps])[0]

    def evaluate_all(
        self,
        raw_images: np.ndarray,
        transmitted_list: Sequence[np.ndarray],
    ) -> List[LeakageResult]:
        """The leakage of each entry of ``transmitted_list`` w.r.t. ``raw_images``.

        The raw side is subsampled, standardized and embedded once and every
        transmitted map is scored against it.  The ``max_samples`` subsample
        is drawn once per call, so every map of one call is scored on the same
        samples.  With an int ``seed`` (or at most ``max_samples`` images)
        every call draws the same subset, and ``evaluate_all(raw, ts)[i]``
        equals ``evaluate(raw, ts[i])`` bit for bit; a
        :class:`numpy.random.Generator` seed advances once per call, so
        separate ``evaluate`` calls each score on a new subset.

        Args:
            raw_images: array of shape ``(N, H, W)``.
            transmitted_list: arrays of shape ``(N, h, w)`` with ``H % h == 0``
                and ``W % w == 0`` (the pooled CNN output images, one per
                pooling).
        """
        raw_images = np.asarray(raw_images, dtype=np.float64)
        transmitted_list = [
            np.asarray(maps, dtype=np.float64) for maps in transmitted_list
        ]
        if raw_images.ndim != 3 or any(maps.ndim != 3 for maps in transmitted_list):
            raise ValueError("raw_images and transmitted_maps must be 3-D arrays")
        if any(len(maps) != len(raw_images) for maps in transmitted_list):
            raise ValueError("raw_images and transmitted_maps must be aligned")
        if len(raw_images) < 2:
            raise ValueError("at least two samples are required")

        indices = self._subsample(len(raw_images))
        count = len(indices)
        # Embed each modality with classical MDS, then compare the *relational*
        # structure of the two configurations: how well do the inter-sample
        # distances among the transmitted representations mirror the
        # inter-sample distances among the raw images an eavesdropper would
        # like to recover?  The identity representation scores 1, a constant
        # (fully compressed) representation scores ~0, and the value is
        # invariant to the scale/offset differences between the depth images
        # and the CNN-output images.  Each sample's row holds its distances
        # to the other samples.
        off_diagonal = ~np.eye(count, dtype=bool)

        def rows(distances: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return _centered_rows(distances[off_diagonal].reshape(count, count - 1))

        raw_rows = rows(
            self._embedding_distances(raw_images[indices].reshape(count, -1))
        )
        results = []
        for maps in transmitted_list:
            reconstructions = upsample_feature_maps(
                maps[indices], raw_images.shape[1:]
            )
            rec_rows = rows(
                self._embedding_distances(reconstructions.reshape(count, -1))
            )
            similarity = np.clip(_row_correlations(raw_rows, rec_rows), 0.0, 1.0)
            results.append(
                LeakageResult(
                    leakage=float(similarity.mean()),
                    per_sample_similarity=similarity,
                    mds_dimensions=self.n_components,
                    num_samples=count,
                )
            )
        return results


def correlation_leakage(
    raw_images: np.ndarray, transmitted_maps: np.ndarray
) -> float:
    """Secondary leakage metric: mean per-sample Pearson correlation.

    Correlates each raw image with the upsampled transmitted map; used as a
    sanity cross-check on the MDS metric (both must decrease with pooling).
    Samples whose raw image or reconstruction is constant contribute zero.
    """
    raw_images = np.asarray(raw_images, dtype=np.float64)
    transmitted_maps = np.asarray(transmitted_maps, dtype=np.float64)
    if len(raw_images) != len(transmitted_maps):
        raise ValueError("raw_images and transmitted_maps must be aligned")
    count = len(raw_images)
    if count == 0:
        return 0.0
    reconstructions = upsample_feature_maps(transmitted_maps, raw_images.shape[1:])
    correlations = _row_correlations(
        _centered_rows(raw_images.reshape(count, -1)),
        _centered_rows(reconstructions.reshape(count, -1)),
    )
    return float(np.abs(correlations).mean())
