"""Small-scale fading and measurement noise for the 60 GHz data link.

The measured power traces in the paper show a few dB of fast variation on top
of the large-scale LoS / blockage structure.  We model it as Nakagami-m fading
(m >= 1, Rician-like in LoS) plus Gaussian measurement noise in dB, generated
with temporal correlation so consecutive 33 ms samples are not independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import SeedLike, as_generator


@dataclass
class NakagamiFadingProcess:
    """Temporally correlated Nakagami-m fading gain process (in dB).

    The process generates unit-mean Nakagami-m power gains.  Temporal
    correlation is introduced by filtering the underlying Gaussian innovations
    with a first-order autoregressive filter with coefficient ``correlation``.

    Attributes:
        m: Nakagami shape parameter (m=1 is Rayleigh; larger m = milder fading,
            appropriate for a strongly line-of-sight 60 GHz link).
        correlation: AR(1) coefficient between consecutive samples in [0, 1).
        seed: RNG seed.
    """

    m: float = 4.0
    correlation: float = 0.8
    seed: SeedLike = None

    def __post_init__(self):
        if self.m < 0.5:
            raise ValueError("Nakagami m parameter must be >= 0.5")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")
        self._rng = as_generator(self.seed)

    def sample_gains_db(self, count: int) -> np.ndarray:
        """Generate ``count`` correlated fading gains in dB (unit mean power)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0)
        # Correlated uniform variates via a Gaussian copula.
        innovations = self._rng.normal(size=count)
        latent = np.empty(count)
        latent[0] = innovations[0]
        scale = np.sqrt(1.0 - self.correlation**2)
        for index in range(1, count):
            latent[index] = (
                self.correlation * latent[index - 1] + scale * innovations[index]
            )
        # scipy.special, not scipy.stats: the same two ufuncs, bit for bit,
        # without the ~45 MB and ~0.7 s that importing scipy.stats costs.
        from scipy import special

        uniforms = special.ndtr(latent)
        # Nakagami-m power gain is Gamma(m, 1/m) distributed with unit mean:
        # the inverse regularized incomplete gamma function is its quantile
        # at unit scale.
        quantiles = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
        gains = special.gammaincinv(self.m, quantiles) * (1.0 / self.m)
        return 10.0 * np.log10(np.maximum(gains, 1e-12))


@dataclass
class MeasurementNoise:
    """Additive Gaussian measurement noise on the reported power (in dB)."""

    std_db: float = 0.5
    seed: SeedLike = None

    def __post_init__(self):
        if self.std_db < 0:
            raise ValueError("std_db must be non-negative")
        self._rng = as_generator(self.seed)

    def sample_db(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._rng.normal(0.0, self.std_db, size=count)
