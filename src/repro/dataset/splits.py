"""Train/validation splitting that mirrors the paper's protocol.

The paper uses a temporal split: training indices are
``Ktrain = {L, L+1, ..., 9928}`` and validation is the remaining tail
``Kval = K \\ Ktrain`` of the 13,228-sample dataset.  For synthetic datasets
of a different length we keep the same *fraction* (about 75 % training).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.generator import PAPER_NUM_SAMPLES, PAPER_TRAIN_BOUNDARY
from repro.dataset.sequences import SequenceDataset

#: Training fraction implied by the paper's split (9928 / 13228).
PAPER_TRAIN_FRACTION = PAPER_TRAIN_BOUNDARY / PAPER_NUM_SAMPLES


@dataclass
class TrainValidationSplit:
    """A pair of sequence datasets for training and validation."""

    train: SequenceDataset
    validation: SequenceDataset

    @property
    def train_fraction(self) -> float:
        total = len(self.train) + len(self.validation)
        return len(self.train) / total if total else 0.0


def temporal_split(
    sequences: SequenceDataset,
    train_fraction: float = PAPER_TRAIN_FRACTION,
) -> TrainValidationSplit:
    """Split sequences by time: the first fraction trains, the tail validates.

    Args:
        sequences: sliding-window dataset ordered by time.
        train_fraction: fraction of windows (by last index) assigned to
            training; the paper's protocol corresponds to ~0.75.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    count = len(sequences)
    if count < 2:
        raise ValueError("need at least two sequence samples to split")
    boundary = int(round(count * train_fraction))
    boundary = min(max(boundary, 1), count - 1)
    indices = np.arange(count)
    return TrainValidationSplit(
        train=sequences.subset(indices[:boundary]),
        validation=sequences.subset(indices[boundary:]),
    )
