"""Wireless-channel parameters of the split-learning link (paper, Section 3).

These parameters describe the link that carries the *neural network traffic*
between UE and BS (cut-layer activations uplink, cut-layer gradients
downlink), not the monitored 60 GHz data link whose power is being predicted.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import dbm_to_milliwatts
from repro.utils.validation import positive


@dataclass(frozen=True)
class LinkParams:
    """Parameters of one direction (uplink or downlink) of the SL link.

    Attributes:
        transmit_power_dbm: transmit power ``P^(x)``.
        bandwidth_hz: bandwidth ``W^(x)``.
    """

    transmit_power_dbm: float
    bandwidth_hz: float

    def __post_init__(self):
        positive("bandwidth_hz", self.bandwidth_hz)

    @property
    def transmit_power_mw(self) -> float:
        return float(dbm_to_milliwatts(self.transmit_power_dbm))


@dataclass(frozen=True)
class WirelessChannelParams:
    """Full parameter set from the paper's "Wireless Channel Parameters".

    Paper values: ``P_UL = 7.5 dBm``, ``P_DL = 40 dBm``, ``W_UL = 30 MHz``,
    ``W_DL = 100 MHz``, ``r = 4 m``, ``alpha = 5``, ``tau = 1 ms`` and
    ``sigma^2 = -174 dBm/Hz``.

    Attributes:
        uplink / downlink: per-direction power and bandwidth.
        distance_m: UE-BS distance ``r``.
        path_loss_exponent: ``alpha``.
        slot_duration_s: time-slot length ``tau``.
        noise_psd_dbm_per_hz: noise power spectral density ``sigma^2``.
    """

    uplink: LinkParams = LinkParams(transmit_power_dbm=7.5, bandwidth_hz=30e6)
    downlink: LinkParams = LinkParams(transmit_power_dbm=40.0, bandwidth_hz=100e6)
    distance_m: float = 4.0
    path_loss_exponent: float = 5.0
    slot_duration_s: float = 1e-3
    noise_psd_dbm_per_hz: float = -174.0

    def __post_init__(self):
        positive("distance_m", self.distance_m)
        positive("path_loss_exponent", self.path_loss_exponent)
        positive("slot_duration_s", self.slot_duration_s)

    def direction(self, name: str) -> LinkParams:
        """Return the :class:`LinkParams` for ``"uplink"`` or ``"downlink"``."""
        normalized = name.lower()
        if normalized in ("ul", "uplink"):
            return self.uplink
        if normalized in ("dl", "downlink"):
            return self.downlink
        raise ValueError(f"unknown link direction {name!r}")

    def mean_snr(self, name: str) -> float:
        """Mean received SNR (linear) for one direction.

        ``SNR = P r^-alpha / (sigma^2 W)`` with unit-mean fading, following the
        paper's channel model.
        """
        link = self.direction(name)
        signal_mw = link.transmit_power_mw * self.distance_m ** (
            -self.path_loss_exponent
        )
        noise_mw = dbm_to_milliwatts(self.noise_psd_dbm_per_hz) * link.bandwidth_hz
        return float(signal_mw / noise_mw)


#: The exact parameter values used in the paper's evaluation.
PAPER_CHANNEL_PARAMS = WirelessChannelParams()
