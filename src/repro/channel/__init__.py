"""Wireless channel of the split-learning (cut-layer) link."""
from repro.channel.arq import ArqSession, ArqStatistics, StepCommunication
from repro.channel.fading import (
    BlockFadingProcess,
    ExponentialFadingProcess,
    slots_from_fading,
)
from repro.channel.link import (
    BatchTransmissionResult,
    INFEASIBLE_SUCCESS_PROBABILITY,
    TransmissionResult,
    WirelessLink,
    decoding_success_probability,
    snr_decoding_threshold,
    transmit_across,
)
from repro.channel.params import (
    PAPER_CHANNEL_PARAMS,
    LinkParams,
    WirelessChannelParams,
)
from repro.channel.payload import PayloadModel

__all__ = [
    "ArqSession",
    "ArqStatistics",
    "BatchTransmissionResult",
    "BlockFadingProcess",
    "ExponentialFadingProcess",
    "INFEASIBLE_SUCCESS_PROBABILITY",
    "LinkParams",
    "PAPER_CHANNEL_PARAMS",
    "PayloadModel",
    "StepCommunication",
    "TransmissionResult",
    "WirelessChannelParams",
    "WirelessLink",
    "decoding_success_probability",
    "slots_from_fading",
    "snr_decoding_threshold",
    "transmit_across",
]
