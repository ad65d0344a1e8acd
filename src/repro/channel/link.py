"""SNR computation and per-slot decoding of the split-learning link.

Following the paper's model, the received SNR in slot ``t`` of direction
``x`` (uplink or downlink) is

    SNR_t = P^(x) r^-alpha h_t / (sigma^2 W^(x))

with i.i.d. unit-mean exponential fading ``h_t``.  A payload of ``B`` bits
transmitted in one slot of length ``tau`` over bandwidth ``W`` is decoded
successfully when the slot capacity exceeds the payload:

    tau W log2(1 + SNR_t) > B      <=>      SNR_t > 2^(B / (tau W)) - 1

(The paper prints the threshold as ``1 - 2^{B/(tau W)}``, which is negative
and would make every transmission succeed; we implement the standard
Shannon-threshold form above, which also reproduces the success probabilities
in Table 1.)  Failed transmissions are retried in subsequent slots.

Because the fading is i.i.d. across slots, the retry loop is never simulated
slot by slot: the number of slots until first decode is ``Geometric(p)`` and
is sampled in closed form from a single fading draw (see
:func:`repro.channel.fading.slots_from_fading`), truncated at the
retransmission cap when one is configured.  :meth:`WirelessLink.transmit`
does this for one payload and :func:`transmit_across` for one payload on each
of many links; the training step transmits through the latter in both fleet
modes.  The legacy per-slot loop is retained as
:meth:`WirelessLink.transmit_reference` — the correctness oracle for
equivalence tests and the baseline for the channel benchmarks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Sequence

import numpy as np

from repro.channel.fading import ExponentialFadingProcess, slots_from_fading
from repro.channel.params import WirelessChannelParams
from repro.utils.seeding import SeedLike, spawn_generators

#: Per-slot success probabilities below this floor are declared infeasible:
#: the link reports an immediate single-slot failure instead of simulating a
#: hopeless retry storm.  The same accounting applies with and without a
#: retransmission cap, so :attr:`ArqStatistics.mean_slots_per_step` stays
#: comparable across configurations (see :meth:`WirelessLink.transmit`).
INFEASIBLE_SUCCESS_PROBABILITY = 1e-12


def snr_decoding_threshold(
    payload_bits: float, slot_duration_s: float, bandwidth_hz: float
) -> float:
    """Minimum SNR required to decode ``payload_bits`` within one slot."""
    if payload_bits < 0:
        raise ValueError("payload_bits must be non-negative")
    if slot_duration_s <= 0 or bandwidth_hz <= 0:
        raise ValueError("slot_duration_s and bandwidth_hz must be positive")
    exponent = payload_bits / (slot_duration_s * bandwidth_hz)
    # Guard against overflow for absurdly large payloads: the threshold is
    # effectively infinite and the transmission never succeeds in one slot.
    if exponent > 1020:
        return math.inf
    return float(2.0**exponent - 1.0)


def decoding_success_probability(
    mean_snr: float,
    payload_bits: float,
    slot_duration_s: float,
    bandwidth_hz: float,
) -> float:
    """Closed-form per-slot success probability under exponential fading.

    With ``SNR_t = mean_snr * h_t`` and ``h_t ~ Exp(1)``,
    ``P[SNR_t > theta] = exp(-theta / mean_snr)``.
    """
    if mean_snr <= 0:
        raise ValueError("mean_snr must be strictly positive")
    threshold = snr_decoding_threshold(payload_bits, slot_duration_s, bandwidth_hz)
    if math.isinf(threshold):
        return 0.0
    return float(np.exp(-threshold / mean_snr))


@dataclass
class TransmissionResult:
    """Outcome of transmitting one payload over the link with retransmissions.

    Attributes:
        success: whether the payload was eventually decoded.
        slots_used: number of slots consumed (including the successful one).
        elapsed_s: wall-clock time spent, ``slots_used * tau``.
        first_attempt_success: whether the very first slot succeeded.
    """

    success: bool
    slots_used: int
    elapsed_s: float
    first_attempt_success: bool


@dataclass
class BatchTransmissionResult:
    """Outcomes of transmitting a batch of payloads, one entry per payload.

    Attributes:
        success: whether each payload was eventually decoded.
        slots_used: slots consumed per payload (including the successful one).
        elapsed_s: wall-clock time per payload, ``slots_used * tau``.
        first_attempt_success: whether the first slot succeeded per payload.
    """

    success: np.ndarray
    slots_used: np.ndarray
    elapsed_s: np.ndarray
    first_attempt_success: np.ndarray

    def __len__(self) -> int:
        return len(self.slots_used)

    def __getitem__(self, index: int) -> TransmissionResult:
        return TransmissionResult(
            success=bool(self.success[index]),
            slots_used=int(self.slots_used[index]),
            elapsed_s=float(self.elapsed_s[index]),
            first_attempt_success=bool(self.first_attempt_success[index]),
        )

    def results(self) -> list[TransmissionResult]:
        """Every entry as a :class:`TransmissionResult`; ``self[i]`` for all
        ``i``, unpacked through ``tolist`` instead of per-element indexing."""
        return [
            TransmissionResult(*entry)
            for entry in zip(
                self.success.tolist(),
                self.slots_used.tolist(),
                np.asarray(self.elapsed_s, dtype=np.float64).tolist(),
                self.first_attempt_success.tolist(),
            )
        ]

    @classmethod
    def empty(cls) -> "BatchTransmissionResult":
        return cls(
            success=np.zeros(0, dtype=bool),
            slots_used=np.zeros(0, dtype=np.int64),
            elapsed_s=np.zeros(0, dtype=np.float64),
            first_attempt_success=np.zeros(0, dtype=bool),
        )


@dataclass
class WirelessLink:
    """One direction of the SL link with slot-based retransmissions.

    Args:
        params: the full channel parameter set.
        direction: ``"uplink"`` or ``"downlink"``.
        max_retransmissions: cap on retransmission attempts per payload
            (non-negative); ``None`` retries forever (the paper's behaviour —
            payloads are retransmitted in the next slots until decoded).
        seed: RNG seed for the fading process.
    """

    params: WirelessChannelParams
    direction: str
    max_retransmissions: int | None = None
    seed: SeedLike = None
    fading: ExponentialFadingProcess = field(init=False)

    def __post_init__(self):
        if self.max_retransmissions is not None and self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative or None")
        # Validates the direction name.
        self._bandwidth_hz = self.params.direction(self.direction).bandwidth_hz
        (fading_rng,) = spawn_generators(self.seed, 1)
        self.fading = ExponentialFadingProcess(seed=fading_rng)
        self._mean_snr = self.params.mean_snr(self.direction)

    @property
    def mean_snr(self) -> float:
        """Mean received SNR (linear)."""
        return self._mean_snr

    @property
    def bandwidth_hz(self) -> float:
        return self._bandwidth_hz

    def snr_threshold(self, payload_bits: float) -> float:
        """SNR needed to decode ``payload_bits`` in one slot."""
        return snr_decoding_threshold(
            payload_bits, self.params.slot_duration_s, self.bandwidth_hz
        )

    def success_probability(self, payload_bits: float) -> float:
        """Closed-form per-slot decoding success probability."""
        return decoding_success_probability(
            self._mean_snr,
            payload_bits,
            self.params.slot_duration_s,
            self.bandwidth_hz,
        )

    def transmit(self, payload_bits: float) -> TransmissionResult:
        """Simulate transmitting one payload, retrying on failed slots.

        The slot count is drawn directly from the geometric distribution via
        one fading draw (i.i.d. fading makes this statistically identical to
        the per-slot loop in :meth:`transmit_reference`), truncated when a
        retransmission cap is configured: a payload that would need more than
        ``max_retransmissions + 1`` slots fails after exactly that many.

        Payloads whose per-slot success probability is below
        :data:`INFEASIBLE_SUCCESS_PROBABILITY` are *declared infeasible* and
        reported as a single-slot failure in every configuration — capped or
        not — rather than simulating a retry storm that cannot succeed.  This
        unified accounting keeps slot statistics comparable across
        retransmission configurations.
        """
        probability = self.success_probability(payload_bits)
        slot = self.params.slot_duration_s
        if probability < INFEASIBLE_SUCCESS_PROBABILITY:
            return TransmissionResult(
                success=False,
                slots_used=1,
                elapsed_s=slot,
                first_attempt_success=False,
            )

        # Scalar inverse-transform of one fading draw (the scalar twin of
        # slots_from_fading, kept in pure Python to avoid numpy call overhead
        # on the per-step hot path).  The draw is consumed even when p == 1
        # so the stream stays aligned with transmit_across.
        gain = self.fading.sample_one() / self.fading.mean
        if probability >= 1.0:
            slots = 1
        else:
            slots = max(1, math.ceil(gain / -math.log1p(-probability)))
        if (
            self.max_retransmissions is not None
            and slots > self.max_retransmissions + 1
        ):
            attempts = self.max_retransmissions + 1
            return TransmissionResult(
                success=False,
                slots_used=attempts,
                elapsed_s=attempts * slot,
                first_attempt_success=False,
            )
        return TransmissionResult(
            success=True,
            slots_used=slots,
            elapsed_s=slots * slot,
            first_attempt_success=slots == 1,
        )

    def transmit_reference(self, payload_bits: float) -> TransmissionResult:
        """Legacy per-slot retry loop (correctness oracle for :meth:`transmit`).

        Draws one fading gain per slot — expected ``1/p`` draws per payload —
        and is therefore pathologically slow at low success probability.  It
        is retained as the statistical reference for equivalence tests and
        the channel benchmarks, with the same declared-infeasible accounting
        as the O(1) path.  Note the two paths consume the fading RNG stream
        at different rates, so they are equivalent in distribution, not
        draw-for-draw.
        """
        probability = self.success_probability(payload_bits)
        slot = self.params.slot_duration_s
        if probability < INFEASIBLE_SUCCESS_PROBABILITY:
            return TransmissionResult(
                success=False,
                slots_used=1,
                elapsed_s=slot,
                first_attempt_success=False,
            )
        threshold = self.snr_threshold(payload_bits)
        attempts = 0
        while True:
            attempts += 1
            snr = self._mean_snr * self.fading.sample_one()
            if snr > threshold:
                return TransmissionResult(
                    success=True,
                    slots_used=attempts,
                    elapsed_s=attempts * slot,
                    first_attempt_success=attempts == 1,
                )
            if (
                self.max_retransmissions is not None
                and attempts > self.max_retransmissions
            ):
                return TransmissionResult(
                    success=False,
                    slots_used=attempts,
                    elapsed_s=attempts * slot,
                    first_attempt_success=False,
                )

    def state_dict(self) -> dict:
        """Restorable state of this link direction: the fading stream position.

        Everything else on the link (SNR, thresholds) is derived from the
        immutable channel parameters, so the RNG state is the complete
        run-time state.
        """
        return {"fading": self.fading.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.fading.load_state_dict(state["fading"])

    def _transmit_draw(self) -> float:
        """One normalized fading draw (the draw :meth:`transmit` consumes)."""
        return self.fading.sample_one() / self.fading.mean

    def expected_slots(self, payload_bits: float) -> float:
        """Expected number of slots until success (geometric distribution)."""
        probability = self.success_probability(payload_bits)
        if probability <= 0.0:
            return math.inf
        return 1.0 / probability


def transmit_across(
    links: Sequence["WirelessLink"], payload_bits: float | np.ndarray
) -> BatchTransmissionResult:
    """One :meth:`WirelessLink.transmit` on *each* of many independent links.

    The training step (:func:`repro.fleet.trainer.joint_step`) moves every
    member's payload in one call instead of N scalar ``transmit`` calls, and
    a rotation step's one payload the same way.  Each link still consumes
    exactly the draws scalar ``transmit`` would — one normalized fading draw
    from its own stream when its payload is feasible, none otherwise — so the
    results are draw-for-draw identical to calling
    ``links[i].transmit(bits[i])`` sequentially; only the probability/slot
    arithmetic is vectorized (element-identical to
    :func:`decoding_success_probability` and to the scalar slot count of
    :meth:`WirelessLink.transmit`, through :func:`slots_from_fading`).

    Args:
        links: one link per payload.  All links must share one slot duration
            (per-link SNR, bandwidth and retransmission caps may differ).
        payload_bits: scalar size shared by every payload, or one size per
            link.

    Returns:
        One entry per link, in link order.
    """
    count = len(links)
    if count == 0:
        return BatchTransmissionResult.empty()
    bits = np.asarray(payload_bits, dtype=np.float64)
    if bits.ndim == 0:
        bits = np.full(count, float(bits))
    elif bits.shape != (count,):
        raise ValueError(f"payload_bits has {len(bits)} entries for {count} links")
    if (bits < 0).any():
        raise ValueError("payload_bits must be non-negative")
    slot = links[0].params.slot_duration_s
    if any(link.params.slot_duration_s != slot for link in links):
        raise ValueError("transmit_across requires a shared slot duration")

    # The scalar decoding_success_probability, element for element (same
    # overflow guard, same pow/exp sequence); every link checked its SNR and
    # bandwidth when it was built.
    exponent = bits / (slot * np.array([link.bandwidth_hz for link in links]))
    thresholds = np.where(
        exponent > 1020, np.inf, np.power(2.0, np.minimum(exponent, 1020.0)) - 1.0
    )
    probabilities = np.exp(-thresholds / np.array([link.mean_snr for link in links]))
    feasible = probabilities >= INFEASIBLE_SUCCESS_PROBABILITY
    # One draw per feasible link, in link order, each from its own stream —
    # infeasible links skip their stream like scalar transmit.
    gains = [
        link._transmit_draw() for link, ok in zip(links, feasible.tolist()) if ok
    ]
    slots = np.ones(count)
    if gains:
        slots[feasible] = slots_from_fading(np.array(gains), probabilities[feasible])
    # A payload needing more than cap = max_retransmissions + 1 slots fails
    # after exactly cap slots; an uncapped link retries until decoded.
    caps = np.array(
        [
            math.inf if link.max_retransmissions is None else link.max_retransmissions + 1
            for link in links
        ],
        dtype=np.float64,
    )
    success = feasible & (slots <= caps)
    # With probability >= the feasibility floor, slot counts stay far inside
    # the int64 range (< ~1e14 even at the floor).
    slots = np.minimum(slots, caps).astype(np.int64)
    return BatchTransmissionResult(
        success=success,
        slots_used=slots,
        elapsed_s=slots * slot,
        first_attempt_success=success & (slots == 1),
    )
