"""Shared plumbing for the per-figure/table experiment runners.

Every experiment accepts an :class:`ExperimentScale` describing how large a
run to perform.  ``paper()`` reproduces the paper's scale (13,228 samples,
40x40 images, 100 epochs); ``fast()`` is the configuration used by the test
suite and the default benchmark run, small enough to execute in seconds while
preserving the qualitative comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from repro.dataset.generator import DatasetConfig, DepthPowerDataset, MmWaveDepthDatasetGenerator
from repro.dataset.sequences import build_sequences
from repro.dataset.splits import TrainValidationSplit, temporal_split
from repro.scenarios import Scenario, get_scenario
from repro.scenarios import registry as _registry
from repro.split.config import ModelConfig, TrainingConfig
from repro.utils.validation import integer

#: Mean pedestrian interarrival time of the paper's environment; the ratio of
#: a scale's ``mean_interarrival_s`` to this value is the traffic densification
#: factor applied to every scenario at that scale.
PAPER_MEAN_INTERARRIVAL_S = 4.0


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by all experiments.

    Attributes:
        num_samples: dataset length (paper: 13,228).
        image_size: depth-image side length (paper: 40).
        max_epochs: training epoch budget (paper: 100).
        steps_per_epoch: SGD steps per epoch.
        batch_size: minibatch size (paper payload accounting implies 64).
        validation_windows: cap on the number of validation windows used for
            the per-epoch RMSE (None = all); keeps numpy inference cheap.
        eval_batch_size: inference minibatch size; bounds the cached im2col /
            recurrent state buffers during evaluation.  Predictions move
            slightly with it (see ``TrainingConfig.eval_batch_size``).
        cnn_channels: hidden channels of the UE CNN.
        rnn_hidden_size: hidden units of the BS RNN.
        mean_interarrival_s: mean spacing of pedestrian crossings; smaller
            scales use denser traffic so that short datasets still contain
            enough blockage events.
        learning_rate: Adam learning rate; the reduced scales use a larger
            step size than the paper's 1e-3 so that the qualitative
            comparison emerges within their much smaller step budget.
        seed: base RNG seed.
        scenario: name of the registered scenario providing the physical
            environment (default: the paper's corridor).
    """

    num_samples: int = 13_228
    image_size: int = 40
    max_epochs: int = 100
    steps_per_epoch: int = 2
    batch_size: int = 64
    validation_windows: Optional[int] = 512
    eval_batch_size: int = 256
    cnn_channels: tuple = (8,)
    rnn_hidden_size: int = 32
    mean_interarrival_s: float = 4.0
    learning_rate: float = 1e-3
    seed: int = 0
    scenario: str = "paper_baseline"

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's experiment scale."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentScale":
        """A laptop-scale configuration for tests and default benchmarks."""
        return cls(
            num_samples=700,
            image_size=20,
            max_epochs=30,
            steps_per_epoch=4,
            batch_size=32,
            validation_windows=160,
            eval_batch_size=64,
            cnn_channels=(4,),
            rnn_hidden_size=16,
            mean_interarrival_s=1.2,
            learning_rate=0.01,
        )

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """The smallest meaningful scale (unit tests of the runners)."""
        return cls(
            num_samples=260,
            image_size=12,
            max_epochs=2,
            steps_per_epoch=2,
            batch_size=16,
            validation_windows=48,
            eval_batch_size=32,
            cnn_channels=(2,),
            rnn_hidden_size=8,
            mean_interarrival_s=1.5,
            learning_rate=0.01,
        )

    def with_scenario(self, scenario: Union[Scenario, str]) -> "ExperimentScale":
        """Copy of this scale bound to a different registered scenario.

        Only the scenario *name* travels on the scale (names are what cache
        keys hold), so a bare :class:`Scenario` instance is accepted only if
        it is registered.
        """
        scenario = get_scenario(scenario)
        registered = _registry.all_scenarios().get(scenario.name)
        if registered != scenario:
            raise ValueError(
                f"scenario {scenario.name!r} is not registered (or differs "
                "from the registered one); call repro.scenarios.register() "
                "before binding it to an ExperimentScale"
            )
        return replace(self, scenario=scenario.name)

    def with_seed(self, seed: int) -> "ExperimentScale":
        """Copy of this scale with a different base RNG seed."""
        return replace(self, seed=integer("seed", seed))

    @property
    def traffic_density_scale(self) -> float:
        """Interarrival multiplier this scale applies to scenario traffic.

        The paper scale leaves traffic untouched (factor 1.0); the reduced
        scales densify it so short datasets still contain blockage events.
        """
        return self.mean_interarrival_s / PAPER_MEAN_INTERARRIVAL_S

    def resolve_scenario(self) -> Scenario:
        """The :class:`Scenario` this scale is bound to."""
        return get_scenario(self.scenario)

    def dataset_config(self) -> DatasetConfig:
        """Compose the scenario's physics with this scale's size knobs."""
        scenario = self.resolve_scenario()
        return DatasetConfig(
            num_samples=self.num_samples,
            image_height=self.image_size,
            image_width=self.image_size,
            frame_interval_s=scenario.frame_interval_s,
            link_distance_m=scenario.link_distance_m,
            mean_interarrival_s=scenario.traffic.with_interarrival_scale(
                self.traffic_density_scale
            ).mean_interarrival_s,
            speed_range_mps=scenario.traffic.speed_range_mps,
            seed=self.seed,
            scenario=scenario.name,
        )

    def base_model_config(self) -> ModelConfig:
        """Img+RF model with one-pixel pooling at this scale."""
        return ModelConfig(
            image_height=self.image_size,
            image_width=self.image_size,
            pooling_height=self.image_size,
            pooling_width=self.image_size,
            cnn_channels=self.cnn_channels,
            rnn_hidden_size=self.rnn_hidden_size,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            steps_per_epoch=self.steps_per_epoch,
            learning_rate=self.learning_rate,
            eval_batch_size=self.eval_batch_size,
            seed=self.seed,
        )

    def valid_poolings(self) -> tuple[int, ...]:
        """Pooling sizes from the paper's sweep that divide the image size."""
        candidates = (1, 4, 10, self.image_size)
        return tuple(
            sorted({p for p in candidates if self.image_size % p == 0})
        )


def scale_from_name(name: str) -> ExperimentScale:
    """Resolve ``"paper"`` / ``"fast"`` / ``"smoke"`` into an ExperimentScale."""
    factories = {
        "paper": ExperimentScale.paper,
        "fast": ExperimentScale.fast,
        "smoke": ExperimentScale.smoke,
    }
    try:
        return factories[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; expected one of {sorted(factories)}"
        ) from None


def generate_dataset(scale: ExperimentScale) -> DepthPowerDataset:
    """Generate (not cached) the dataset for a given scale and its scenario."""
    return MmWaveDepthDatasetGenerator(scale.dataset_config()).generate()


def prepare_split(
    scale: ExperimentScale, dataset: Optional[DepthPowerDataset] = None
) -> TrainValidationSplit:
    """Dataset -> sequences -> temporal train/validation split.

    The validation set is subsampled (uniformly, deterministically) to
    ``scale.validation_windows`` windows to keep per-epoch evaluation cheap.
    """
    dataset = dataset if dataset is not None else generate_dataset(scale)
    sequences = build_sequences(dataset)
    split = temporal_split(sequences)
    if (
        scale.validation_windows is not None
        and len(split.validation) > scale.validation_windows
    ):
        # Stride subsampling keeps the validation windows in temporal order
        # with (nearly) uniform spacing, so trace plots (Fig. 3b) stay readable
        # while the per-epoch RMSE evaluation remains cheap.
        indices = np.linspace(
            0, len(split.validation) - 1, scale.validation_windows
        ).astype(int)
        indices = np.unique(indices)
        split = TrainValidationSplit(
            train=split.train, validation=split.validation.subset(indices)
        )
    return split


def scheme_model_configs(scale: ExperimentScale) -> dict[str, ModelConfig]:
    """The five schemes of Fig. 3a at the requested scale.

    The paper's "4x4 pooling" variant is kept when 4 divides the image size;
    otherwise the closest divisor larger than 1 is used.
    """
    base = scale.base_model_config()
    one_pixel = scale.image_size
    small_pool = 4 if scale.image_size % 4 == 0 else next(
        p for p in range(2, scale.image_size + 1) if scale.image_size % p == 0
    )
    return {
        "img+rf-1pixel": base.with_pooling(one_pixel),
        f"img+rf-{small_pool}x{small_pool}": base.with_pooling(small_pool),
        "img-only-1pixel": replace(base.with_pooling(one_pixel), use_rf=False),
        f"img-only-{small_pool}x{small_pool}": replace(
            base.with_pooling(small_pool), use_rf=False
        ),
        "rf-only": replace(base, use_image=False),
    }
