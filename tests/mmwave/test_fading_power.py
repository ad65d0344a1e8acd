"""Tests for small-scale fading, measurement noise and the received-power model."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mmwave import (
    KnifeEdgeBlockageModel,
    LinkBudget,
    MeasurementNoise,
    NakagamiFadingProcess,
    ReceivedPowerModel,
)
from repro.scene import CorridorScene, DepthCameraIntrinsics, LoiteringPedestrian
from repro.scene.environment import BlockerArrays, BlockerGeometry
from repro.utils.seeding import as_generator

SRC = Path(__file__).resolve().parents[2] / "src"


def test_nakagami_gains_unit_mean_power():
    process = NakagamiFadingProcess(m=3.0, correlation=0.0, seed=0)
    gains_db = process.sample_gains_db(20000)
    linear = 10 ** (gains_db / 10.0)
    assert linear.mean() == pytest.approx(1.0, abs=0.05)


def test_nakagami_higher_m_less_variance():
    mild = NakagamiFadingProcess(m=10.0, correlation=0.0, seed=1).sample_gains_db(5000)
    harsh = NakagamiFadingProcess(m=1.0, correlation=0.0, seed=1).sample_gains_db(5000)
    assert mild.std() < harsh.std()


def test_nakagami_correlation_increases_lag1_autocorr():
    uncorrelated = NakagamiFadingProcess(m=2.0, correlation=0.0, seed=2).sample_gains_db(4000)
    correlated = NakagamiFadingProcess(m=2.0, correlation=0.95, seed=2).sample_gains_db(4000)

    def lag1(x):
        x = x - x.mean()
        return float(np.corrcoef(x[:-1], x[1:])[0, 1])

    assert lag1(correlated) > lag1(uncorrelated) + 0.3


def test_nakagami_validation_and_edge_counts():
    with pytest.raises(ValueError):
        NakagamiFadingProcess(m=0.1)
    with pytest.raises(ValueError):
        NakagamiFadingProcess(correlation=1.0)
    process = NakagamiFadingProcess(seed=0)
    assert process.sample_gains_db(0).shape == (0,)
    with pytest.raises(ValueError):
        process.sample_gains_db(-1)


def _scipy_stats_gains_db(m, correlation, seed, count):
    """Oracle: the AR(1) Gaussian copula mapped through ``scipy.stats``."""
    from scipy import stats

    innovations = as_generator(seed).normal(size=count)
    latent = np.empty(count)
    latent[0] = innovations[0]
    scale = np.sqrt(1.0 - correlation**2)
    for index in range(1, count):
        latent[index] = correlation * latent[index - 1] + scale * innovations[index]
    uniforms = stats.norm.cdf(latent)
    gains = stats.gamma.ppf(
        np.clip(uniforms, 1e-12, 1.0 - 1e-12), a=m, scale=1.0 / m
    )
    return 10.0 * np.log10(np.maximum(gains, 1e-12))


@pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 4.0, 7.3, 20.0])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("count", [1, 997])
def test_nakagami_gains_are_bitwise_the_scipy_stats_formula(m, seed, count):
    correlation = 0.8
    gains_db = NakagamiFadingProcess(
        m=m, correlation=correlation, seed=seed
    ).sample_gains_db(count)
    expected = _scipy_stats_gains_db(m, correlation, seed, count)
    assert gains_db.tobytes() == expected.tobytes()


def test_dataset_generation_does_not_import_scipy_stats():
    """Fading needs two ufuncs of ``scipy.special``, not the ~45 MB
    ``scipy.stats`` import, in every process that generates a dataset."""
    script = (
        "import sys\n"
        "from repro.experiments.common import generate_dataset, scale_from_name\n"
        "dataset = generate_dataset(scale_from_name('smoke'))\n"
        "assert len(dataset) > 0\n"
        "assert 'scipy.special' in sys.modules\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy.stats')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_measurement_noise_statistics():
    noise = MeasurementNoise(std_db=0.7, seed=0)
    samples = noise.sample_db(20000)
    assert samples.mean() == pytest.approx(0.0, abs=0.02)
    assert samples.std() == pytest.approx(0.7, abs=0.02)
    with pytest.raises(ValueError):
        MeasurementNoise(std_db=-0.1)


def test_mean_power_unblocked_equals_link_budget():
    model = ReceivedPowerModel()
    expected = float(model.link_budget.line_of_sight_power_dbm(4.0))
    no_blockers = BlockerArrays.from_lists([[]])
    assert model.mean_powers_dbm(4.0, no_blockers).tolist() == pytest.approx([expected])


def test_mean_power_blocked_is_attenuated():
    model = ReceivedPowerModel()
    blocker = BlockerGeometry(
        blocking=True,
        clearance_m=0.0,
        distance_from_tx_m=2.0,
        distance_from_rx_m=2.0,
        body_width_m=0.5,
    )
    unblocked, blocked = model.mean_powers_dbm(4.0, BlockerArrays.from_lists([[], [blocker]]))
    assert unblocked - blocked > 10.0


def test_mean_power_never_below_floor():
    model = ReceivedPowerModel(
        link_budget=LinkBudget(tx_power_dbm=-50.0), floor_dbm=-78.0
    )
    no_blockers = BlockerArrays.from_lists([[]])
    assert model.mean_powers_dbm(1000.0, no_blockers).tolist() == pytest.approx([-78.0])


def test_power_trace_matches_blockage_pattern():
    blocker = LoiteringPedestrian(position=[2.0, 0.0, 0.0], start_time_s=0.5, end_time_s=1.0)
    scene = CorridorScene(
        pedestrians=[blocker],
        camera_intrinsics=DepthCameraIntrinsics(width=8, height=8),
        frame_interval_s=0.1,
    )
    frames = list(scene.frames(15))
    model = ReceivedPowerModel(blockage_model=KnifeEdgeBlockageModel())
    powers = model.power_trace_dbm(scene, frames)
    assert powers.shape == (15,)
    blocked = np.array([frame.line_of_sight_blocked for frame in frames])
    assert blocked.any() and (~blocked).any()
    assert powers[~blocked].mean() - powers[blocked].mean() > 10.0


def test_power_trace_with_randomness_is_reproducible():
    scene = CorridorScene(
        camera_intrinsics=DepthCameraIntrinsics(width=8, height=8)
    )
    frames = list(scene.frames(10))
    trace_a = ReceivedPowerModel.with_default_randomness(seed=5).power_trace_dbm(scene, frames)
    trace_b = ReceivedPowerModel.with_default_randomness(seed=5).power_trace_dbm(scene, frames)
    assert np.allclose(trace_a, trace_b)
    trace_c = ReceivedPowerModel.with_default_randomness(seed=6).power_trace_dbm(scene, frames)
    assert not np.allclose(trace_a, trace_c)


def test_power_trace_fading_adds_variation():
    scene = CorridorScene(camera_intrinsics=DepthCameraIntrinsics(width=8, height=8))
    frames = list(scene.frames(30))
    deterministic = ReceivedPowerModel().power_trace_dbm(scene, frames)
    noisy = ReceivedPowerModel.with_default_randomness(seed=1).power_trace_dbm(scene, frames)
    assert deterministic.std() == pytest.approx(0.0, abs=1e-9)
    assert noisy.std() > 0.1
