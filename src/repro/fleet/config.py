"""Configuration of a multi-UE fleet run."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fleet.scheduler import SCHEDULERS
from repro.scenarios.placement import DEFAULT_JITTER_FRACTION

#: The two fleet training modes.
ROTATION = "rotation"
PARALLEL_AVERAGE = "parallel_average"
FLEET_MODES = (ROTATION, PARALLEL_AVERAGE)

#: Joint-step compute backends for parallel-average mode.
FLEET_BACKENDS = ("auto", "loop", "batched")


@dataclass(frozen=True)
class FleetConfig:
    """How many UEs train together, and how.

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
        backend: member compute of the parallel-average joint step.  There
            is one joint step; the backend picks only how it runs the
            members' CNN forward/backward and Adam updates.  ``"batched"``
            stacks every member's weights into a
            :class:`~repro.fleet.bank.StackedUEBank` and fuses the N passes
            into batched kernels (on rounds whose shards give every member
            the same batch size; other rounds fall back to the loop);
            ``"loop"`` runs each member's own ``UEClient`` in turn.  The two
            are bitwise-identical (same histories, same RNG streams, same
            checkpoints — checkpoints are interchangeable across backends),
            so the default ``"auto"`` picks ``"batched"`` for
            parallel-average runs and ``"loop"`` elsewhere.  Rotation mode
            has no joint step and rejects an explicit ``"batched"``.
    """

    num_ues: int = 2
    mode: str = ROTATION
    scheduler: str = "round_robin"
    placement_jitter: float = DEFAULT_JITTER_FRACTION
    steps_per_turn: Optional[int] = None
    max_rounds: Optional[int] = None
    seed: Optional[int] = None
    backend: str = "auto"

    def __post_init__(self):
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
        if self.backend not in FLEET_BACKENDS:
            raise ValueError(
                f"backend must be one of {FLEET_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "batched" and self.mode == ROTATION:
            raise ValueError(
                "the batched backend applies to parallel_average mode only"
            )

    def resolved_backend(self) -> str:
        """The concrete backend: ``auto`` means batched for parallel-average."""
        if self.backend != "auto":
            return self.backend
        return "batched" if self.mode == PARALLEL_AVERAGE else "loop"


#: The paper's setup as a fleet: one UE, one BS, one SL link.  The single-UE
#: trainer and every single-UE experiment job train this configuration.
SINGLE_UE = FleetConfig(num_ues=1, mode=ROTATION)
