"""Pins a short training trajectory to :data:`TRAJECTORY_VERSION`.

The dataset and trained-model caches key their entries on
:data:`repro.dataset.cache.TRAJECTORY_VERSION`, so a code change that moves
training trajectories, even in the last bits, must bump it or the caches
keep serving models trained by the old code.  This test trains a smoke-scale
image + RF run and pins a SHA-256 digest of its learning curve and final UE
weights together with the version: a trajectory that moves without a bump
fails here.  When a change moves trajectories on purpose, bump the version
and re-pin every constant below in the same change.

Limits: the guard is active only on the platform the digest was pinned on.
A move of the size this test exists for cannot be told apart from a change
of platform.  The ``Conv2D`` change behind version 1 left the learning curve
and training losses bitwise unchanged and moved the final UE weights by at
most 1.1e-16; forcing a different OpenBLAS kernel on the same machine
(``OPENBLAS_CORETYPE=Haswell``) moves them by as much and changes the
digest too.  So:

* the digest is compared only where :func:`_platform` (numpy version, BLAS
  build, SIMD extensions found, any ``OPENBLAS_CORETYPE`` override) equals
  :data:`PINNED_PLATFORM`, and is skipped with that reason everywhere else,
  which includes CI hosts that install an unpinned numpy;
* the learning curve is compared everywhere, but to 1e-6: it catches a
  trajectory that moves beyond rounding, not an ulp-level move.

A change that may move trajectories must therefore be checked on the pinned
platform, or by comparing the digest against the parent revision's on one
host, before deciding whether to bump the version.
"""
import hashlib
import os

import numpy as np
import pytest

from repro.dataset.cache import TRAJECTORY_VERSION
from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer

PINNED_VERSION = 2
PINNED_DIGEST = "2e228335b854fb399847002581c7b32afd6c4bbdda9184515fa8e5e37ec163b9"
PINNED_RMSE_CURVE_DB = [14.200873956579121, 14.041367013438457]
PINNED_PLATFORM = (
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
)


def _platform() -> str:
    """numpy version, BLAS build and kernel, SIMD extensions: what sets the
    rounding."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    platform = (
        f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; "
        f"{' '.join(simd)}"
    )
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    return f"{platform}; OPENBLAS_CORETYPE={coretype}" if coretype else platform


@pytest.fixture(scope="module")
def trajectory(smoke_scale, smoke_split):
    trainer = SplitTrainer(
        ExperimentConfig(
            model=smoke_scale.base_model_config(),
            training=smoke_scale.training_config(),
        )
    )
    history = trainer.fit(smoke_split.train, smoke_split.validation)
    digest = hashlib.sha256(history.validation_rmse_curve_db.tobytes())
    for record in history.records:
        digest.update(np.float64(record.train_loss).tobytes())
    weights = trainer.protocol.ue.cnn.state_dict()
    for key in sorted(weights):
        digest.update(key.encode())
        digest.update(weights[key].tobytes())
    return history, digest.hexdigest()


def test_learning_curve_is_pinned_with_the_version(trajectory):
    history, _ = trajectory
    assert TRAJECTORY_VERSION == PINNED_VERSION
    assert history.validation_rmse_curve_db.tolist() == pytest.approx(
        PINNED_RMSE_CURVE_DB, rel=1e-6
    )


def test_trajectory_digest_is_pinned_with_the_version(trajectory):
    if _platform() != PINNED_PLATFORM:
        pytest.skip(f"digest pinned on {PINNED_PLATFORM!r}, not {_platform()!r}")
    _, digest = trajectory
    assert (TRAJECTORY_VERSION, digest) == (PINNED_VERSION, PINNED_DIGEST)
