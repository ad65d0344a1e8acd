"""Sliding-window sequence construction for the time-series predictor.

At time index ``k`` the paper feeds the RNN a length-``L`` sequence
``{s_{k-L+1}, ..., s_k}`` of (CNN image feature, received power) pairs and
trains it to predict the power ``T / gamma`` frames ahead, with ``L = 4``,
``T = 120 ms`` and ``gamma = 33 ms`` (the camera frame interval).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dataset.generator import DepthPowerDataset

#: Sequence length used in the paper.
PAPER_SEQUENCE_LENGTH = 4

#: Prediction horizon used in the paper [s].
PAPER_HORIZON_S = 0.120


def horizon_in_frames(horizon_s: float, frame_interval_s: float) -> int:
    """Number of whole frames corresponding to a time horizon.

    The paper predicts ``P_{k + T/gamma}``; with T = 120 ms and gamma = 33 ms
    this is ~3.6 frames, which we round to the nearest integer frame (4).
    """
    if horizon_s <= 0 or frame_interval_s <= 0:
        raise ValueError("horizon_s and frame_interval_s must be positive")
    frames = int(round(horizon_s / frame_interval_s))
    return max(frames, 1)


@dataclass
class SequenceDataset:
    """Sliding-window samples ready for the split-learning models.

    Attributes:
        image_sequences: ``(M, L, H, W)`` depth-image windows.  Built by
            :func:`build_sequences`, this is a read-only strided view of the
            source dataset's ``images`` (each frame is stored once, not ``L``
            times), and contiguous slices of it stay views.
        power_sequences: ``(M, L)`` received-power windows [dBm].
        targets: ``(M,)`` received power ``horizon_frames`` after the window
            end [dBm].
        last_indices: ``(M,)`` index ``k`` (into the source dataset) of the
            last element of each window; the target is sample
            ``k + horizon_frames``.
        horizon_frames: prediction horizon in frames.
        frame_interval_s: sampling interval of the source dataset.
    """

    image_sequences: np.ndarray
    power_sequences: np.ndarray
    targets: np.ndarray
    last_indices: np.ndarray
    horizon_frames: int
    frame_interval_s: float

    def __post_init__(self):
        if self.image_sequences.ndim != 4:
            raise ValueError("image_sequences must have shape (M, L, H, W)")
        count = self.image_sequences.shape[0]
        if self.power_sequences.shape != self.image_sequences.shape[:2]:
            raise ValueError("power_sequences must have shape (M, L)")
        if self.targets.shape != (count,):
            raise ValueError("targets must have shape (M,)")
        if self.last_indices.shape != (count,):
            raise ValueError("last_indices must have shape (M,)")

    def __len__(self) -> int:
        return int(self.image_sequences.shape[0])

    @property
    def sequence_length(self) -> int:
        return int(self.image_sequences.shape[1])

    def subset(self, indices) -> "SequenceDataset":
        """Restrict the sequence dataset to the given sample positions.

        A ``slice`` keeps views of the arrays; an index array gathers copies.
        """
        if not isinstance(indices, slice):
            indices = np.asarray(indices)
        return SequenceDataset(
            image_sequences=self.image_sequences[indices],
            power_sequences=self.power_sequences[indices],
            targets=self.targets[indices],
            last_indices=self.last_indices[indices],
            horizon_frames=self.horizon_frames,
            frame_interval_s=self.frame_interval_s,
        )

    @property
    def frame_indices(self) -> np.ndarray:
        """``(M, L)`` source-dataset frame behind every window element.

        Window ``m`` ends at frame ``k = last_indices[m]`` and covers frames
        ``k - L + 1, ..., k``, so ``image_sequences[m, l]`` is frame
        ``frame_indices[m, l]``.  Consecutive windows share ``L - 1`` frames;
        inference runs the UE CNN once per distinct frame by these ids.
        """
        return self.last_indices[:, None] + np.arange(1 - self.sequence_length, 1)

    @property
    def target_times_s(self) -> np.ndarray:
        """Absolute times of the prediction targets."""
        return (self.last_indices + self.horizon_frames) * self.frame_interval_s


def build_sequences(
    dataset: DepthPowerDataset,
    sequence_length: int = PAPER_SEQUENCE_LENGTH,
    horizon_s: float = PAPER_HORIZON_S,
    normalize_power: bool = False,
) -> SequenceDataset:
    """Convert an aligned frame dataset into sliding-window sequences.

    Args:
        dataset: aligned (image, power) samples.
        sequence_length: window length ``L`` (paper: 4).
        horizon_s: prediction horizon ``T`` in seconds (paper: 0.120).
        normalize_power: when True, the power sequences (inputs only, not the
            targets) are standardized to zero mean / unit variance; the
            trainer handles its own target scaling.

    Returns:
        A :class:`SequenceDataset` with one sample per valid window.
    """
    if sequence_length < 1:
        raise ValueError("sequence_length must be at least 1")
    horizon_frames = horizon_in_frames(horizon_s, dataset.frame_interval_s)
    total = len(dataset)
    first_last_index = sequence_length - 1
    last_last_index = total - 1 - horizon_frames
    if last_last_index < first_last_index:
        raise ValueError(
            f"dataset with {total} samples is too short for sequence_length="
            f"{sequence_length} and horizon {horizon_frames} frames"
        )

    last_indices = np.arange(first_last_index, last_last_index + 1)
    count = len(last_indices)

    # Window m covers frames m, ..., m + L - 1: a read-only strided view of
    # the frames, so each frame is stored once rather than L times.
    windows = sliding_window_view(dataset.images, sequence_length, axis=0)
    image_sequences = windows[:count].transpose(0, 3, 1, 2)
    frames = last_indices[:, None] + np.arange(1 - sequence_length, 1)
    power_sequences = dataset.powers_dbm[frames]
    targets = dataset.powers_dbm[last_indices + horizon_frames]

    if normalize_power:
        mean = power_sequences.mean()
        std = power_sequences.std()
        if std > 0:
            power_sequences = (power_sequences - mean) / std

    return SequenceDataset(
        image_sequences=image_sequences,
        power_sequences=power_sequences,
        targets=targets,
        last_indices=last_indices,
        horizon_frames=horizon_frames,
        frame_interval_s=dataset.frame_interval_s,
    )
