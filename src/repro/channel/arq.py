"""Stop-and-wait ARQ session over the split-learning link.

Each training step of the split model exchanges one uplink payload (cut-layer
activations) and one downlink payload (cut-layer gradients).  ``ArqSession``
wraps the two :class:`~repro.channel.link.WirelessLink` directions and exposes
per-step and aggregate statistics used by the trainer's wall-clock model and
by the Table 1 experiment.

The downlink is *gated* on the uplink: if the activations are never decoded
(only possible with a retransmission cap or an infeasible payload — the
paper's defaults retry forever), the BS has nothing to backpropagate, so no
gradient payload is transmitted and the step costs only the uplink slots.
Statistics are streamed (Welford mean/variance of per-step slots and latency)
instead of accumulating a per-step history.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import List, Optional

import numpy as np

from repro.channel.link import (
    BatchTransmissionResult,
    TransmissionResult,
    WirelessLink,
    transmit_across,
)
from repro.channel.params import WirelessChannelParams
from repro.utils.seeding import SeedLike, spawn_generators


@dataclass
class StepCommunication:
    """Communication outcome of one split-learning training step.

    ``downlink`` is ``None`` when the uplink failed and the gradient payload
    was therefore never transmitted (the gated-exchange path).
    """

    uplink: TransmissionResult
    downlink: Optional[TransmissionResult]

    @property
    def total_slots(self) -> int:
        slots = self.uplink.slots_used
        if self.downlink is not None:
            slots += self.downlink.slots_used
        return slots

    @property
    def total_elapsed_s(self) -> float:
        elapsed = self.uplink.elapsed_s
        if self.downlink is not None:
            elapsed += self.downlink.elapsed_s
        return elapsed

    @property
    def success(self) -> bool:
        return (
            self.uplink.success
            and self.downlink is not None
            and self.downlink.success
        )


@dataclass
class ArqStatistics:
    """Streaming aggregate communication statistics over a training run.

    All quantities are O(1) in memory: means and variances of the per-step
    slot count and latency are maintained with Welford's algorithm, so
    arbitrarily long runs never accumulate a per-step history.  Variances
    are population variances over the recorded steps.
    """

    steps: int = 0
    uplink_slots: int = 0
    downlink_slots: int = 0
    uplink_first_attempt_successes: int = 0
    downlink_first_attempt_successes: int = 0
    uplink_failures: int = 0
    downlink_failures: int = 0
    downlink_skipped: int = 0
    total_elapsed_s: float = 0.0
    slots_mean: float = 0.0
    slots_m2: float = 0.0
    latency_mean_s: float = 0.0
    latency_m2: float = 0.0

    # -- recording ------------------------------------------------------------------
    def record(self, step: StepCommunication) -> None:
        """Fold one exchange outcome into the running aggregates."""
        uplink, downlink = step.uplink, step.downlink
        self.steps += 1
        self.uplink_slots += uplink.slots_used
        self.uplink_first_attempt_successes += int(uplink.first_attempt_success)
        self.uplink_failures += int(not uplink.success)
        if downlink is None:
            self.downlink_skipped += 1
        else:
            self.downlink_slots += downlink.slots_used
            self.downlink_first_attempt_successes += int(
                downlink.first_attempt_success
            )
            self.downlink_failures += int(not downlink.success)
        total_slots = step.total_slots
        total_elapsed_s = step.total_elapsed_s
        self.total_elapsed_s += total_elapsed_s

        delta = total_slots - self.slots_mean
        self.slots_mean += delta / self.steps
        self.slots_m2 += delta * (total_slots - self.slots_mean)
        delta = total_elapsed_s - self.latency_mean_s
        self.latency_mean_s += delta / self.steps
        self.latency_m2 += delta * (total_elapsed_s - self.latency_mean_s)

    # -- derived quantities -----------------------------------------------------------
    @property
    def downlink_attempts(self) -> int:
        """Steps on which a downlink payload was actually transmitted."""
        return self.steps - self.downlink_skipped

    @property
    def uplink_first_attempt_success_rate(self) -> float:
        return self.uplink_first_attempt_successes / self.steps if self.steps else 0.0

    @property
    def downlink_first_attempt_success_rate(self) -> float:
        """First-slot success rate over *attempted* downlinks (gated steps excluded)."""
        attempts = self.downlink_attempts
        return self.downlink_first_attempt_successes / attempts if attempts else 0.0

    @property
    def mean_slots_per_step(self) -> float:
        return self.slots_mean if self.steps else 0.0

    @property
    def slots_variance(self) -> float:
        return self.slots_m2 / self.steps if self.steps else 0.0

    @property
    def slots_std(self) -> float:
        return float(np.sqrt(self.slots_variance))

    @property
    def mean_step_latency_s(self) -> float:
        return self.latency_mean_s if self.steps else 0.0

    @property
    def latency_variance_s2(self) -> float:
        return self.latency_m2 / self.steps if self.steps else 0.0

    @property
    def latency_std_s(self) -> float:
        return float(np.sqrt(self.latency_variance_s2))

    # -- lifecycle ----------------------------------------------------------------------
    def snapshot(self) -> "ArqStatistics":
        """Immutable-by-copy view of the current aggregates."""
        return replace(self)

    def state_dict(self) -> dict:
        """Exact field values (unlike :meth:`as_dict`, which reports derived
        summaries); :meth:`from_state` rebuilds an identical instance."""
        return asdict(self)

    @classmethod
    def from_state(cls, state: dict) -> "ArqStatistics":
        """Rebuild statistics captured by :meth:`state_dict`."""
        known = {field.name for field in fields(cls)}
        unknown = set(state) - known
        if unknown:
            raise ValueError(f"unknown ArqStatistics fields: {sorted(unknown)}")
        return cls(**state)

    def merge(self, other: "ArqStatistics") -> "ArqStatistics":
        """Combined statistics of two disjoint runs (for sweep aggregation)."""
        merged = self.snapshot()
        if other.steps == 0:
            return merged
        if merged.steps == 0:
            return other.snapshot()
        total = merged.steps + other.steps
        for mean_attr, m2_attr in (
            ("slots_mean", "slots_m2"),
            ("latency_mean_s", "latency_m2"),
        ):
            delta = getattr(other, mean_attr) - getattr(merged, mean_attr)
            setattr(
                merged,
                mean_attr,
                getattr(merged, mean_attr) + delta * other.steps / total,
            )
            setattr(
                merged,
                m2_attr,
                getattr(merged, m2_attr)
                + getattr(other, m2_attr)
                + delta * delta * merged.steps * other.steps / total,
            )
        for attr in (
            "steps",
            "uplink_slots",
            "downlink_slots",
            "uplink_first_attempt_successes",
            "downlink_first_attempt_successes",
            "uplink_failures",
            "downlink_failures",
            "downlink_skipped",
            "total_elapsed_s",
        ):
            setattr(merged, attr, getattr(merged, attr) + getattr(other, attr))
        return merged

    def as_dict(self) -> dict:
        """JSON-friendly summary (used by the sweep artifact)."""
        return {
            "steps": self.steps,
            "uplink_slots": self.uplink_slots,
            "downlink_slots": self.downlink_slots,
            "uplink_failures": self.uplink_failures,
            "downlink_failures": self.downlink_failures,
            "downlink_skipped": self.downlink_skipped,
            "mean_slots_per_step": self.mean_slots_per_step,
            "slots_std": self.slots_std,
            "mean_step_latency_s": self.mean_step_latency_s,
            "latency_std_s": self.latency_std_s,
            "uplink_first_attempt_success_rate": self.uplink_first_attempt_success_rate,
            "downlink_first_attempt_success_rate": self.downlink_first_attempt_success_rate,
            "total_elapsed_s": self.total_elapsed_s,
        }


@dataclass
class ArqSession:
    """Bidirectional ARQ session between UE and BS.

    Args:
        params: the wireless channel parameters.
        max_retransmissions: per-payload retransmission cap (non-negative;
            ``None`` retries until success, matching the paper).
        seed: RNG seed shared between the two directions (split internally).
    """

    params: WirelessChannelParams
    max_retransmissions: int | None = None
    seed: SeedLike = None
    uplink: WirelessLink = field(init=False)
    downlink: WirelessLink = field(init=False)
    statistics: ArqStatistics = field(init=False)

    def __post_init__(self):
        uplink_rng, downlink_rng = spawn_generators(self.seed, 2)
        self.uplink = WirelessLink(
            params=self.params,
            direction="uplink",
            max_retransmissions=self.max_retransmissions,
            seed=uplink_rng,
        )
        self.downlink = WirelessLink(
            params=self.params,
            direction="downlink",
            max_retransmissions=self.max_retransmissions,
            seed=downlink_rng,
        )
        self.statistics = ArqStatistics()

    def exchange(
        self, uplink_payload_bits: float, downlink_payload_bits: float
    ) -> StepCommunication:
        """Transmit the forward payload uplink, then — only if it was decoded —
        the gradient payload downlink, and record the exchange.

        A failed uplink means the BS never computed gradients, so the step
        costs only the uplink slots and ``downlink`` is ``None``.  A bare
        exchange of this session alone: the training step draws its
        transmissions through :func:`transmit_uplink_across` /
        :func:`transmit_downlink_across` and records them with
        :meth:`record_exchange`.
        """
        uplink_result = self.uplink.transmit(uplink_payload_bits)
        downlink_result = (
            self.downlink.transmit(downlink_payload_bits)
            if uplink_result.success
            else None
        )
        return self.record_exchange(uplink_result, downlink_result)

    def record_exchange(
        self,
        uplink: TransmissionResult,
        downlink: Optional[TransmissionResult],
    ) -> StepCommunication:
        """Fold an externally assembled uplink/downlink pair into the session.

        Callers that schedule transmissions on a shared medium pass results
        whose ``elapsed_s`` reflects the medium completion time (own slots
        plus queueing behind other UEs); ``slots_used`` always stays the
        session's own slot demand, so slot statistics measure medium load
        while latency statistics measure experienced delay.
        """
        step = StepCommunication(uplink=uplink, downlink=downlink)
        self.statistics.record(step)
        return step

    def reset_statistics(self) -> None:
        """Clear the aggregate statistics."""
        self.statistics = ArqStatistics()

    def state_dict(self) -> dict:
        """Restorable session state: both fading streams plus the aggregates."""
        return {
            "uplink": self.uplink.state_dict(),
            "downlink": self.downlink.state_dict(),
            "statistics": self.statistics.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore session state captured by :meth:`state_dict`."""
        self.uplink.load_state_dict(state["uplink"])
        self.downlink.load_state_dict(state["downlink"])
        self.statistics = ArqStatistics.from_state(state["statistics"])


def transmit_uplink_across(
    sessions: List["ArqSession"], payload_bits: float | np.ndarray
) -> BatchTransmissionResult:
    """One unrecorded uplink per session, batched across sessions.

    The training step (:func:`repro.fleet.trainer.joint_step`) moves every
    member's uplink payload through :func:`repro.channel.link.transmit_across`
    in one call — draw-for-draw identical per session to
    ``session.uplink.transmit``, since every session owns its own fading
    streams.  The step schedules the results on its medium and folds them in
    via :meth:`ArqSession.record_exchange`.
    """
    return transmit_across([session.uplink for session in sessions], payload_bits)


def transmit_downlink_across(
    sessions: List["ArqSession"], payload_bits: float | np.ndarray
) -> BatchTransmissionResult:
    """Downlink twin of :func:`transmit_uplink_across` (unrecorded)."""
    return transmit_across([session.downlink for session in sessions], payload_bits)
