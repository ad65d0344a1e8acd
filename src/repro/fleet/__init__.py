"""The training engine: fleets, shared-medium scheduling, federated split training.

The paper's protocol is one UE against one BS.  This package runs it as
*fleets*: N :class:`~repro.split.ue.UEClient`s with independent, placement-
jittered channels share one BS and one slotted medium.  A
:class:`MediumScheduler` serializes the concurrent cut-layer traffic so fleet
wall-clock time is medium-occupancy-accurate, and :class:`FleetTrainer`, the
one training loop of the library, supports classic rotation split learning
plus splitfed-style parallel averaging.  The paper's single-UE trainer,
:class:`~repro.split.trainer.SplitTrainer`, is the rotation fleet of one
(:data:`SINGLE_UE`), the only fleet that also trains the RF-only baseline.
"""
from repro.fleet.bank import StackedUEBank
from repro.fleet.config import (
    FLEET_BACKENDS,
    FLEET_MODES,
    PARALLEL_AVERAGE,
    ROTATION,
    SINGLE_UE,
    FleetConfig,
)
from repro.fleet.fleet import (
    FLEET_STREAM_SALT,
    FleetMember,
    UEFleet,
    shard_indices,
)
from repro.fleet.scheduler import (
    SCHEDULERS,
    MediumScheduler,
    ProportionalScheduler,
    RoundRobinScheduler,
    ScheduleResult,
    scheduler_from_name,
)
from repro.fleet.trainer import FleetHistory, FleetRoundRecord, FleetTrainer

__all__ = [
    "FLEET_BACKENDS",
    "FLEET_MODES",
    "FLEET_STREAM_SALT",
    "FleetConfig",
    "FleetHistory",
    "FleetMember",
    "FleetRoundRecord",
    "FleetTrainer",
    "MediumScheduler",
    "PARALLEL_AVERAGE",
    "ProportionalScheduler",
    "ROTATION",
    "RoundRobinScheduler",
    "SCHEDULERS",
    "SINGLE_UE",
    "ScheduleResult",
    "StackedUEBank",
    "UEFleet",
    "scheduler_from_name",
    "shard_indices",
]
