"""Round-granular run-state checkpoints of the training engine.

A :class:`Checkpoint` captures everything a training loop needs to continue a
run *bit-identically* after a process death:

* both model halves' weights **and** optimizer state (Adam moments, step
  counts, hyper-parameters);
* every RNG stream the loop consumes — minibatch sampling and the per-session
  fading streams of the ARQ link(s);
* the aggregate ARQ statistics accumulated so far;
* the fitted :class:`~repro.split.normalization.PowerNormalizer`;
* the learning-curve history recorded up to the checkpointed round.

Deliberately **not** captured: the bounded ring buffer of recent ARQ
exchanges (a debugging aid), cached im2col / recurrent scratch buffers
(reallocated on the first step after a restore) and the training data itself
— resuming requires passing the same datasets to ``fit``.

Checkpoints are written atomically (temporary file + ``os.replace``), so an
interrupt during the write leaves the previous checkpoint intact.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Union

from repro.nn.serialization import load_state_tree, save_state_tree

#: Version of the checkpoint archive layout.
CHECKPOINT_VERSION = 1

#: Checkpoint kind of the one training engine,
#: :class:`~repro.fleet.trainer.FleetTrainer` (the single-UE trainer is its
#: fleet of one).  Any other kind, such as the ``"split"`` checkpoints of
#: older releases, is refused on resume.
FLEET_KIND = "fleet"


@dataclass
class Checkpoint:
    """One restorable snapshot of a training run.

    Attributes:
        kind: producing trainer (:data:`FLEET_KIND`).
        progress: completed rounds (epochs, for a single UE).
        elapsed_s: simulated wall-clock time accumulated so far.
        history: JSON-able serialized learning-curve history so far.
        state: nested trainer state tree (weights, optimizers, RNG streams,
            ARQ statistics, normalizer).
        meta: trainer identity and extra progress counters, validated on
            resume so a checkpoint never restores into a mismatched trainer.
    """

    kind: str
    progress: int
    elapsed_s: float
    history: dict
    state: dict
    meta: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def save(self, path: str | os.PathLike) -> str:
        """Atomically persist this checkpoint as an ``.npz`` archive."""
        return save_state_tree(
            path,
            {
                "checkpoint": {
                    "version": self.version,
                    "kind": self.kind,
                    "progress": int(self.progress),
                    "elapsed_s": float(self.elapsed_s),
                    "meta": self.meta,
                },
                "history": self.history,
                "state": self.state,
            },
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        """Load a checkpoint written by :meth:`save`.

        Raises:
            FileNotFoundError: when no archive exists at ``path``.
            ValueError: on a version or layout mismatch.
        """
        tree = load_state_tree(path)
        try:
            header = tree["checkpoint"]
            version = int(header["version"])
        except KeyError as exc:
            raise ValueError(f"{os.fspath(path)!r} is not a checkpoint") from exc
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return cls(
            kind=str(header["kind"]),
            progress=int(header["progress"]),
            elapsed_s=float(header["elapsed_s"]),
            history=tree.get("history", {}),
            state=tree.get("state", {}),
            meta=header.get("meta", {}),
            version=version,
        )


CheckpointLike = Union[Checkpoint, str, os.PathLike]


def resolve_checkpoint(checkpoint: CheckpointLike, expected_kind: str) -> Checkpoint:
    """Normalize a path-or-instance into a validated :class:`Checkpoint`."""
    if not isinstance(checkpoint, Checkpoint):
        checkpoint = Checkpoint.load(checkpoint)
    if checkpoint.kind != expected_kind:
        raise ValueError(
            f"cannot resume a {expected_kind!r} trainer from a "
            f"{checkpoint.kind!r} checkpoint"
        )
    return checkpoint
