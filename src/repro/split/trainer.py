"""The paper's single-UE split trainer: a rotation fleet of one.

``SplitTrainer`` reproduces the paper's training protocol (one UE, one BS,
one SL link) on the one training engine,
:class:`~repro.fleet.trainer.FleetTrainer`: a single UE in rotation mode
trains alone every round, so a round is an epoch of ``steps_per_epoch``
minibatches.  Every record carries the simulated elapsed training time
(computation + cut-layer communication), the x axis of the paper's learning
curves (Fig. 3a).
"""
from __future__ import annotations

from repro.fleet.config import SINGLE_UE
from repro.fleet.trainer import FleetTrainer
from repro.split.config import ExperimentConfig
from repro.split.protocol import SplitTrainingProtocol


class SplitTrainer(FleetTrainer):
    """Trains a split model on sequence datasets with simulated wall-clock time.

    Args:
        config: experiment configuration (model, training protocol, channel).
    """

    def __init__(self, config: ExperimentConfig):
        super().__init__(config, SINGLE_UE)

    @property
    def protocol(self) -> SplitTrainingProtocol:
        """The one UE's protocol (its ``bs`` is the trainer's BS)."""
        return self.fleet.members[0].protocol
