"""Pins the initial weights of both halves of the split model.

The layers draw their initial weights from their own seeded generators
(He-uniform conv kernels, Xavier-uniform input kernels and dense weights,
orthogonal recurrent kernels, zero biases and the LSTM's unit forget-gate
bias).  The trajectory digest of ``test_trajectory_version.py`` sees only
the LSTM run's *final* UE weights, so a change of draw order in a GRU, a
SimpleRNN or the dense head would go unnoticed there.  This test pins a
SHA-256 of every parameter (name, shape, bytes) of the default UE CNN and of
the BS network for each recurrent type, all built from seed 0.

Orthogonal initialization goes through LAPACK's QR, whose last bits depend on
the BLAS build, so the digests are compared only on the platform they were
pinned on (the trajectory digest's guard).
"""
import hashlib

import pytest

from repro.split.config import ModelConfig
from repro.split.models import build_bs_rnn, build_ue_cnn

from tests.regression.test_trajectory_version import PINNED_PLATFORM, _platform

PINNED_DIGESTS = {
    "ue_cnn": "1ee162367d80cd5026cd352b0ef14f9106de2d60c6c7586df137c62a850ba819",
    "bs_lstm": "5c328024a26621e6745795204629c6878ca1613ff9600acc03169c161d122f8d",
    "bs_gru": "250e9de633db7c656f2d2fa5db3ea54c92b8012a1ea5ccdede77a0c581173b4b",
    "bs_simple": "3c4b89b122975ad669bbcfb9ec06817f6adfb2bc5255cb1832a9d967ecbd7624",
}


def _digest(network) -> str:
    digest = hashlib.sha256()
    state = network.state_dict()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(str(state[key].shape).encode())
        digest.update(state[key].tobytes())
    return digest.hexdigest()


def _build(name: str):
    if name == "ue_cnn":
        return build_ue_cnn(ModelConfig(), seed=0)
    return build_bs_rnn(ModelConfig(rnn_type=name[len("bs_"):]), seed=0)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_initial_weights_are_pinned(name):
    if _platform() != PINNED_PLATFORM:
        pytest.skip(f"digests pinned on {PINNED_PLATFORM!r}, not {_platform()!r}")
    assert _digest(_build(name)) == PINNED_DIGESTS[name]
