"""Synthetic replica of the paper's depth-image / received-power dataset.

The original dataset ([3, 4] in the paper) pairs 13,228 Kinect depth frames
(33 ms apart) with simultaneous received-power measurements of a 60.48 GHz
link while people walk through the line of sight.  ``MmWaveDepthDatasetGenerator``
reproduces that workload from the corridor scene simulator and the mmWave
power model.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.mmwave.power import ReceivedPowerModel
from repro.scenarios import get_scenario
from repro.scene.actors import generate_crossing_traffic
from repro.scene.environment import DEFAULT_FRAME_INTERVAL_S, CorridorScene
from repro.utils.seeding import spawn_generators

#: Number of samples in the measured dataset of the paper.
PAPER_NUM_SAMPLES = 13_228

#: Index (1-based, inclusive) of the last training sample in the paper.
PAPER_TRAIN_BOUNDARY = 9_928


@dataclass
class DepthPowerDataset:
    """Aligned depth images and received-power samples.

    Attributes:
        images: array of shape ``(N, H, W)`` with normalized depth in [0, 1].
        powers_dbm: array of shape ``(N,)`` with received power in dBm.
        line_of_sight_blocked: boolean array of shape ``(N,)`` marking frames
            in which the LoS was geometrically blocked (ground-truth labels
            useful for analysis, not used for training).
        frame_interval_s: time between consecutive samples.
        metadata: free-form generation parameters for provenance.
    """

    images: np.ndarray
    powers_dbm: np.ndarray
    line_of_sight_blocked: np.ndarray
    frame_interval_s: float = DEFAULT_FRAME_INTERVAL_S
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.powers_dbm = np.asarray(self.powers_dbm, dtype=np.float64)
        self.line_of_sight_blocked = np.asarray(self.line_of_sight_blocked, dtype=bool)
        if self.images.ndim != 3:
            raise ValueError("images must have shape (N, H, W)")
        if self.powers_dbm.shape != (self.images.shape[0],):
            raise ValueError("powers_dbm length must match number of images")
        if self.line_of_sight_blocked.shape != (self.images.shape[0],):
            raise ValueError("line_of_sight_blocked length must match images")
        if self.frame_interval_s <= 0:
            raise ValueError("frame_interval_s must be positive")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def image_shape(self) -> tuple[int, int]:
        """(height, width) of each depth frame."""
        return int(self.images.shape[1]), int(self.images.shape[2])

    @property
    def times_s(self) -> np.ndarray:
        """Absolute sample times."""
        return np.arange(len(self)) * self.frame_interval_s

    @property
    def blockage_fraction(self) -> float:
        """Fraction of frames in which the LoS is blocked."""
        return float(self.line_of_sight_blocked.mean()) if len(self) else 0.0

    def slice(self, start: int, stop: int) -> "DepthPowerDataset":
        """Return a contiguous sub-dataset (useful for plotting windows)."""
        return DepthPowerDataset(
            images=self.images[start:stop],
            powers_dbm=self.powers_dbm[start:stop],
            line_of_sight_blocked=self.line_of_sight_blocked[start:stop],
            frame_interval_s=self.frame_interval_s,
            metadata=dict(self.metadata),
        )


@dataclass
class DatasetConfig:
    """Configuration of the synthetic dataset generator.

    The defaults reproduce the paper's dataset scale; tests and quick examples
    shrink ``num_samples`` and the image resolution.

    ``scenario`` names a registered :class:`repro.scenarios.Scenario` that
    supplies everything a plain :class:`DatasetConfig` cannot express (camera
    optics, corridor geometry, link budget, crossing span).  The numeric
    fields below remain authoritative for what they describe — an
    :class:`~repro.experiments.common.ExperimentScale` composes them from the
    scenario and the scale before they reach the generator.
    """

    num_samples: int = PAPER_NUM_SAMPLES
    image_height: int = 40
    image_width: int = 40
    frame_interval_s: float = DEFAULT_FRAME_INTERVAL_S
    link_distance_m: float = 4.0
    mean_interarrival_s: float = 4.0
    speed_range_mps: tuple = (0.8, 1.5)
    seed: int = 0
    scenario: str = "paper_baseline"

    def __post_init__(self):
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if self.image_height <= 0 or self.image_width <= 0:
            raise ValueError("image dimensions must be positive")
        if self.frame_interval_s <= 0:
            raise ValueError("frame_interval_s must be positive")
        if self.link_distance_m <= 0:
            raise ValueError("link_distance_m must be positive")

    @property
    def duration_s(self) -> float:
        """Total covered wall-clock time of the dataset."""
        return self.num_samples * self.frame_interval_s


class MmWaveDepthDatasetGenerator:
    """Generate a :class:`DepthPowerDataset` from the scene + power simulators.

    Args:
        config: dataset scale and scene parameters; ``config.scenario`` names
            the environment preset and is the *only* scenario input — keeping
            it on the config guarantees the cache fingerprint and the
            generated physics can never disagree.
        power_model: received-power model; a seeded default using the
            scenario's link budget is built when omitted.
    """

    def __init__(
        self,
        config: DatasetConfig | None = None,
        power_model: Optional[ReceivedPowerModel] = None,
    ):
        self.config = config or DatasetConfig()
        self.scenario = get_scenario(self.config.scenario)
        traffic_rng, power_rng = spawn_generators(self.config.seed, 2)
        self._traffic_rng = traffic_rng
        self.power_model = power_model or ReceivedPowerModel.with_default_randomness(
            seed=power_rng, link_budget=self.scenario.link_budget
        )

    def build_scene(self) -> CorridorScene:
        """Construct the corridor scene with randomized crossing traffic."""
        config = self.config
        scenario = self.scenario
        traffic = generate_crossing_traffic(
            duration_s=config.duration_s,
            config=replace(
                scenario.traffic,
                mean_interarrival_s=config.mean_interarrival_s,
                speed_range_mps=config.speed_range_mps,
                crossing_x_range=scenario.crossing_x_range(config.link_distance_m),
            ),
            seed=self._traffic_rng,
        )
        intrinsics = scenario.camera.with_resolution(
            config.image_width, config.image_height
        )
        return CorridorScene(
            link_distance_m=config.link_distance_m,
            antenna_height_m=scenario.antenna_height_m,
            pedestrians=traffic,
            frame_interval_s=config.frame_interval_s,
            camera_intrinsics=intrinsics,
            corridor_half_width_m=scenario.corridor_half_width_m,
        )

    def generate(self) -> DepthPowerDataset:
        """Run the simulation and return the aligned dataset."""
        config = self.config
        scene = self.build_scene()
        frames = scene.simulate(config.num_samples)
        powers = self.power_model.power_trace_dbm(scene, frames)
        blocked = frames.line_of_sight_blocked
        metadata = {
            "num_samples": float(config.num_samples),
            "link_distance_m": config.link_distance_m,
            "frame_interval_s": config.frame_interval_s,
            "seed": float(config.seed),
            "blockage_fraction": float(blocked.mean()),
            "scenario": self.scenario.name,
            "scenario_hash": self.scenario.fingerprint,
        }
        return DepthPowerDataset(
            images=frames.depth_images,
            powers_dbm=powers,
            line_of_sight_blocked=blocked,
            frame_interval_s=config.frame_interval_s,
            metadata=metadata,
        )


def generate_small_dataset(
    num_samples: int = 600,
    image_size: int = 16,
    seed: int = 0,
    mean_interarrival_s: float = 2.5,
) -> DepthPowerDataset:
    """Generate a reduced dataset for tests, examples and quick benchmarks."""
    config = DatasetConfig(
        num_samples=num_samples,
        image_height=image_size,
        image_width=image_size,
        mean_interarrival_s=mean_interarrival_s,
        seed=seed,
    )
    return MmWaveDepthDatasetGenerator(config).generate()
