"""Configuration of a multi-UE fleet run."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fleet.scheduler import SCHEDULERS
from repro.scenarios.placement import DEFAULT_JITTER_FRACTION
from repro.utils.validation import integer_fields

#: The two fleet training modes.
ROTATION = "rotation"
PARALLEL_AVERAGE = "parallel_average"
FLEET_MODES = (ROTATION, PARALLEL_AVERAGE)


@dataclass(frozen=True)
class FleetConfig:
    """How many UEs train together, and how.

    Every member's CNN trains in a
    :class:`~repro.fleet.bank.StackedUEBank` in both modes, so there is no
    compute knob: the fields below shape only the trajectory.

    Attributes:
        num_ues: fleet size ``N``.
        mode: ``"rotation"`` (classic split learning — one logical UE model
            hands off client-to-client, each client trains alone during its
            turn) or ``"parallel_average"`` (splitfed-style — every client
            steps each round, the shared medium serializes their payloads,
            client CNN weights are averaged after each round and the single
            shared BS RNN steps once on the concatenated batch).
        scheduler: medium discipline name (``"round_robin"`` /
            ``"proportional"``) used to serialize concurrent transmissions in
            parallel-average mode (rotation turns are uncontended).
        placement_jitter: fractional link-distance jitter applied to UEs
            1..N-1 (UE 0 keeps the nominal placement — the N=1 anchor).
        steps_per_turn: SGD steps each UE takes per round (rotation: per
            turn; parallel-average: joint steps per round).  Defaults to the
            training config's ``steps_per_epoch`` so an N=1 rotation round is
            exactly a single-UE epoch.
        max_rounds: round budget (default: the training config's
            ``max_epochs``).
        seed: fleet-level seed for placement jitter and the extra UE RNG
            streams (default: the training seed).  UE 0's streams always come
            from the training seed alone, untouched by this value.
    """

    num_ues: int = 2
    mode: str = ROTATION
    scheduler: str = "round_robin"
    placement_jitter: float = DEFAULT_JITTER_FRACTION
    steps_per_turn: Optional[int] = None
    max_rounds: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        integer_fields(self)
        if self.num_ues < 1:
            raise ValueError("num_ues must be at least 1")
        if self.mode not in FLEET_MODES:
            raise ValueError(
                f"mode must be one of {FLEET_MODES}, got {self.mode!r}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {sorted(SCHEDULERS)}"
            )
        if not 0.0 <= self.placement_jitter < 1.0:
            raise ValueError("placement_jitter must be in [0, 1)")
        if self.steps_per_turn is not None and self.steps_per_turn <= 0:
            raise ValueError("steps_per_turn must be positive")
        if self.max_rounds is not None and self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")

    def resolved_backend(self) -> str:
        """Always ``"batched"``: every UE trains in a stacked bank.

        Kept only for the benchmark harness (``benchmarks/harness``), its
        one caller, which checks it before timing the fleet workload.
        """
        return "batched"


#: The paper's setup as a fleet: one UE, one BS, one SL link.  The single-UE
#: trainer and every single-UE experiment job train this configuration.
SINGLE_UE = FleetConfig(num_ues=1, mode=ROTATION)
