"""The per-slot retry loop: the statistical oracle of ``WirelessLink.transmit``.

:meth:`repro.channel.WirelessLink.transmit` samples the number of slots
until the first decode in closed form from one fading draw.
:func:`transmit_reference` simulates the same retries slot by slot instead,
one fading draw per slot (expected ``1/p`` draws per payload), with the same
declared-infeasible accounting and retransmission cap.  The two consume the
link's fading stream at different rates, so they agree in distribution, not
draw for draw.  ``tests/channel/test_link_arq.py`` checks that agreement and
``benchmarks/test_bench_channel.py`` times ``transmit`` against the loop.
"""
from __future__ import annotations

from repro.channel import (
    INFEASIBLE_SUCCESS_PROBABILITY,
    TransmissionResult,
    WirelessLink,
    snr_decoding_threshold,
)


def transmit_reference(link: WirelessLink, payload_bits: float) -> TransmissionResult:
    """Transmit one payload over ``link``, drawing one fading gain per slot."""
    probability = link.success_probability(payload_bits)
    slot = link.params.slot_duration_s
    if probability < INFEASIBLE_SUCCESS_PROBABILITY:
        return TransmissionResult(
            success=False, slots_used=1, elapsed_s=slot, first_attempt_success=False
        )
    threshold = snr_decoding_threshold(payload_bits, slot, link.bandwidth_hz)
    attempts = 0
    while True:
        attempts += 1
        snr = link.mean_snr * link.fading.sample_one()
        if snr > threshold:
            return TransmissionResult(
                success=True,
                slots_used=attempts,
                elapsed_s=attempts * slot,
                first_attempt_success=attempts == 1,
            )
        if link.max_retransmissions is not None and attempts > link.max_retransmissions:
            return TransmissionResult(
                success=False,
                slots_used=attempts,
                elapsed_s=attempts * slot,
                first_attempt_success=False,
            )
