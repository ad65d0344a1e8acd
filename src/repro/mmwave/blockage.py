"""Human-body blockage models for mmWave links.

At 60 GHz a human body crossing the line of sight attenuates the link by
15-25 dB.  The attenuation does not switch instantaneously: as the body edge
approaches the first Fresnel zone the received power ramps down over roughly
100-200 ms at walking speed.  That ramp is exactly the feature that makes a
depth camera useful for *proactive* power prediction, so the blockage model
matters for reproducing the paper's qualitative results.

Two models are provided:

* :class:`KnifeEdgeBlockageModel` — double knife-edge diffraction (DKED): the
  body is modelled as an absorbing screen of finite width and the attenuation
  is the combination of the diffraction losses around its two vertical edges.
  This is the model recommended by 3GPP TR 38.901 for blockage and by METIS.
* :class:`PiecewiseLinearBlockageModel` — a simple ramp/hold/ramp attenuation
  profile, useful as a fast, easily parameterized alternative and for testing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.scene.environment import BlockerArrays, BlockerGeometry
from repro.utils.units import frequency_to_wavelength


def knife_edge_loss_db(fresnel_parameter) -> np.ndarray:
    """Single knife-edge diffraction loss (ITU-R P.526 approximation).

    Args:
        fresnel_parameter: the dimensionless Fresnel-Kirchhoff parameter ``v``.
            Positive values mean the edge protrudes into the direct path.

    Returns:
        Diffraction loss in dB (>= 0); zero for ``v <= -0.78``.
    """
    v = np.asarray(fresnel_parameter, dtype=float)
    loss = np.zeros_like(v)
    above = v > -0.78
    v_above = v[above]
    loss[above] = 6.9 + 20.0 * np.log10(
        np.sqrt((v_above - 0.1) ** 2 + 1.0) + v_above - 0.1
    )
    return np.maximum(loss, 0.0)


def fresnel_parameter(
    clearance_m,
    distance_from_tx_m,
    distance_from_rx_m,
    frequency_hz: float,
) -> np.ndarray:
    """Fresnel-Kirchhoff diffraction parameter ``v``.

    Args:
        clearance_m: signed clearance of the edge w.r.t. the direct path;
            positive when the edge is inside the path (obstructing).
        distance_from_tx_m / distance_from_rx_m: distances from the edge plane
            to the two link endpoints.
        frequency_hz: carrier frequency.
    """
    clearance = np.asarray(clearance_m, dtype=float)
    d1 = np.asarray(distance_from_tx_m, dtype=float)
    d2 = np.asarray(distance_from_rx_m, dtype=float)
    if np.any(d1 <= 0) or np.any(d2 <= 0):
        raise ValueError("edge must lie strictly between the link endpoints")
    wavelength = frequency_to_wavelength(frequency_hz)
    return clearance * np.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


_POW = np.frompyfunc(math.pow, 2, 1)


def _libm_pow10(exponents: np.ndarray) -> np.ndarray:
    """``10.0 ** x`` for each element, through the C library's ``pow``.

    The scalar ``10.0 ** x`` of a per-body computation calls libm ``pow``;
    numpy's array power is a SIMD routine that differs from it in the last
    bit on a few percent of inputs, so the batched path calls ``math.pow``
    element by element to stay bitwise equal.
    """
    return _POW(10.0, exponents).astype(np.float64)


class BlockageModel:
    """Interface: map per-blocker geometry to a total attenuation in dB.

    :meth:`frame_attenuations_db` is what the power model calls, once for a
    whole run of frames.  A subclass implements it with array operations,
    or implements :meth:`attenuation_db` for one frame and inherits a
    default that calls it once per frame.
    """

    def attenuation_db(self, blockers: Sequence[BlockerGeometry]) -> float:
        raise NotImplementedError

    def frame_attenuations_db(self, blockers: BlockerArrays) -> np.ndarray:
        """Total attenuation of each frame of a run, shape ``(num_frames,)``."""
        return np.array(
            [
                self.attenuation_db(blockers.frame_blockers(offset))
                for offset in range(blockers.num_frames)
            ],
            dtype=np.float64,
        )


class IndependentBodiesBlockageModel(BlockageModel):
    """Bodies attenuate independently: a frame's loss is the dB sum over its
    bodies, capped at ``1.5 * max_attenuation_db``.

    Subclasses implement :meth:`body_attenuations_db` over all rows of a run.
    Each frame's total is the builtin ``sum`` of its one-body values in
    pedestrian order, the same call a one-frame computation makes, so it is
    bitwise equal on every interpreter: from Python 3.12 on ``sum`` of floats
    is compensated (Neumaier), which no fixed sequence of array additions
    reproduces.
    """

    max_attenuation_db: float

    def body_attenuations_db(self, blockers: BlockerArrays) -> np.ndarray:
        """Attenuation of each (frame, body) row, shape ``(P,)``."""
        raise NotImplementedError

    def frame_attenuations_db(self, blockers: BlockerArrays) -> np.ndarray:
        bodies = self.body_attenuations_db(blockers).tolist()
        bounds = np.searchsorted(blockers.frame, np.arange(blockers.num_frames + 1)).tolist()
        totals = np.array(
            [sum(bodies[low:high]) for low, high in zip(bounds[:-1], bounds[1:])],
            dtype=np.float64,
        )
        # Multiple simultaneous blockers rarely exceed ~30 dB in measurements.
        cap = 1.5 * self.max_attenuation_db
        return np.where(cap < totals, cap, totals)


@dataclass
class KnifeEdgeBlockageModel(IndependentBodiesBlockageModel):
    """Double knife-edge diffraction blockage by a human body.

    The body is an absorbing vertical strip of width ``body_width_m`` centred
    at lateral offset ``clearance_m`` from the link.  The two vertical edges
    sit at offsets ``clearance ± width/2``; the total field is approximated by
    the sum of the two edge contributions (METIS / 3GPP style), and the loss is
    capped at ``max_attenuation_db`` to reflect residual multipath observed in
    measurements.

    Attributes:
        frequency_hz: carrier frequency.
        max_attenuation_db: cap on the per-body attenuation (measurements of
            60 GHz body blockage report 15-25 dB).
    """

    frequency_hz: float = 60.48e9
    max_attenuation_db: float = 22.0

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.max_attenuation_db <= 0:
            raise ValueError("max_attenuation_db must be positive")

    def body_attenuations_db(self, blockers: BlockerArrays) -> np.ndarray:
        # ``max(x, 1e-3)`` on Python floats.
        d1 = np.where(1e-3 > blockers.distance_from_tx_m, 1e-3, blockers.distance_from_tx_m)
        d2 = np.where(1e-3 > blockers.distance_from_rx_m, 1e-3, blockers.distance_from_rx_m)
        clearance = blockers.clearance_m
        half_width = blockers.body_width_m / 2.0
        # Signed clearances of the two body edges relative to the direct path.
        # When the body centre is on the path (clearance 0) both edges protrude
        # by half the body width.
        v_near = fresnel_parameter(half_width - clearance, d1, d2, self.frequency_hz)
        v_far = fresnel_parameter(half_width + clearance, d1, d2, self.frequency_hz)

        # Body entirely outside the direct path: only the nearest edge
        # matters and the clearance is negative (no obstruction).
        loss = knife_edge_loss_db(v_near)
        # Shadow-zone combination of both edges: power sums of the two
        # knife-edge contributions (field-amplitude addition).
        shadow = ~(clearance > half_width)
        amplitude_near = _libm_pow10(-knife_edge_loss_db(v_near[shadow]) / 20.0)
        amplitude_far = _libm_pow10(-knife_edge_loss_db(v_far[shadow]) / 20.0)
        # In the deep shadow the diffracted fields from both edges add;
        # convert the combined amplitude back to a loss.
        combined = amplitude_near + amplitude_far
        combined = np.where(1e-12 > combined, 1e-12, combined)
        loss[shadow] = -20.0 * np.log10(np.where(1.0 < combined, 1.0, combined))
        # ``min(max(loss, 0), cap)`` on Python floats, signed zero included.
        loss = np.where(0.0 > loss, 0.0, loss)
        return np.where(self.max_attenuation_db < loss, self.max_attenuation_db, loss)


@dataclass
class PiecewiseLinearBlockageModel(IndependentBodiesBlockageModel):
    """Simple ramp/hold blockage profile.

    Attenuation is ``max_attenuation_db`` when the body centre is within
    ``inner_clearance_m`` of the link, zero beyond ``outer_clearance_m``, and
    linear in between.  Fast and fully deterministic; a
    :class:`~repro.mmwave.power.ReceivedPowerModel` option beside the
    knife-edge model.
    """

    max_attenuation_db: float = 20.0
    inner_clearance_m: float = 0.2
    outer_clearance_m: float = 0.6

    def __post_init__(self):
        if self.max_attenuation_db <= 0:
            raise ValueError("max_attenuation_db must be positive")
        if not 0.0 <= self.inner_clearance_m < self.outer_clearance_m:
            raise ValueError("require 0 <= inner_clearance_m < outer_clearance_m")

    def body_attenuations_db(self, blockers: BlockerArrays) -> np.ndarray:
        clearance = blockers.clearance_m
        fraction = (self.outer_clearance_m - clearance) / (
            self.outer_clearance_m - self.inner_clearance_m
        )
        attenuation = self.max_attenuation_db * fraction
        attenuation = np.where(clearance >= self.outer_clearance_m, 0.0, attenuation)
        return np.where(
            clearance <= self.inner_clearance_m, self.max_attenuation_db, attenuation
        )
