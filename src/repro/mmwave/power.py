"""Received-power model of the monitored 60 GHz data link.

``ReceivedPowerModel`` turns the geometric scene state (which pedestrians are
where, relative to the UE-BS link) into a received power sample in dBm:

    power = LoS link budget  -  human-blockage attenuation
            + small-scale fading + measurement noise

This is the quantity the paper's neural networks learn to predict 120 ms
ahead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mmwave.blockage import BlockageModel, KnifeEdgeBlockageModel
from repro.mmwave.fading import MeasurementNoise, NakagamiFadingProcess
from repro.mmwave.propagation import LinkBudget
from repro.scene.environment import (
    BlockerArrays,
    CorridorScene,
    FrameBatch,
    SceneFrame,
)
from repro.utils.seeding import SeedLike, spawn_generators


@dataclass
class ReceivedPowerModel:
    """Received power of the UE -> BS mmWave data link.

    Attributes:
        link_budget: static LoS link budget (power, gains, frequency).
        blockage_model: human-body attenuation model.
        fading: small-scale fading process (``None`` disables fading).
        noise: measurement noise (``None`` disables noise).
        floor_dbm: receiver sensitivity floor; reported power never drops
            below this value (mirrors the saturation visible in measured
            traces).
    """

    link_budget: LinkBudget = field(default_factory=LinkBudget)
    blockage_model: BlockageModel = field(default_factory=KnifeEdgeBlockageModel)
    fading: NakagamiFadingProcess | None = None
    noise: MeasurementNoise | None = None
    floor_dbm: float = -78.0

    @classmethod
    def with_default_randomness(cls, seed: SeedLike = None, **kwargs) -> "ReceivedPowerModel":
        """Construct a model with default fading and noise seeded from ``seed``."""
        fading_rng, noise_rng = spawn_generators(seed, 2)
        return cls(
            fading=NakagamiFadingProcess(seed=fading_rng),
            noise=MeasurementNoise(seed=noise_rng),
            **kwargs,
        )

    def mean_powers_dbm(self, distance_m: float, blockers: BlockerArrays) -> np.ndarray:
        """Deterministic received power (no fading / noise) of each frame of a run."""
        line_of_sight = float(self.link_budget.line_of_sight_power_dbm(distance_m))
        power = line_of_sight - self.blockage_model.frame_attenuations_db(blockers)
        # ``max(power, floor)`` on Python floats.
        return np.where(self.floor_dbm > power, self.floor_dbm, power)

    def power_trace_dbm(
        self, scene: CorridorScene, frames: Sequence[SceneFrame]
    ) -> np.ndarray:
        """Received power for a sequence of scene frames (dBm per frame).

        A :class:`~repro.scene.environment.FrameBatch` passes its blocker
        arrays straight through; any other sequence of frames is gathered
        into them first.
        """
        if isinstance(frames, FrameBatch):
            blockers = frames.blockers
        else:
            blockers = BlockerArrays.from_lists([frame.blockers for frame in frames])
        count = len(frames)
        total = self.mean_powers_dbm(scene.link_distance_m, blockers)
        if self.fading is not None:
            total = total + self.fading.sample_gains_db(count)
        if self.noise is not None:
            total = total + self.noise.sample_db(count)
        return np.maximum(total, self.floor_dbm)
