"""Benchmark: batched scene simulation against the per-frame loop.

``MmWaveDepthDatasetGenerator.generate`` simulates a run of frames in one
batched pass (pedestrian states as arrays, walls ray-cast once, one slab test
over all (frame, body) pairs, array blockage and power models).  This times
it against the frame-by-frame, body-by-body loop kept as the test oracle in
``tests/scene/per_frame_oracle.py`` on one fast-scale dense_crowd cell
(700 frames of 20x20 pixels, the busiest preset), checks the two datasets are
bitwise equal, and asserts the batched pass is at least
:data:`MIN_SPEEDUP` times faster.

The cell is the same at every ``REPRO_BENCH_SCALE``: the oracle is too slow
to run at paper scale in CI, and the smoke scale's 12x12 frames would time
mostly fixed per-call costs.
"""
from __future__ import annotations

import time

import numpy as np

from repro.dataset.generator import MmWaveDepthDatasetGenerator
from repro.experiments import ExperimentScale
from tests.scene import per_frame_oracle

#: Required speedup of batched generation over the per-frame loop.
MIN_SPEEDUP = 3.0

#: Timing repetitions per side; the sides alternate and each keeps its
#: fastest repeat.
REPEATS = 3

CONFIG = ExperimentScale.fast().with_scenario("dense_crowd").dataset_config()


def _batched():
    dataset = MmWaveDepthDatasetGenerator(CONFIG).generate()
    return dataset.images, dataset.powers_dbm, dataset.line_of_sight_blocked


def _per_frame():
    return per_frame_oracle.generate(MmWaveDepthDatasetGenerator(CONFIG))


def _timed(run):
    start = time.perf_counter()
    outputs = run()
    return time.perf_counter() - start, outputs


def test_batched_generation_beats_per_frame_loop(capsys):
    batched_s = looped_s = float("inf")
    for _ in range(REPEATS):
        seconds, batched = _timed(_batched)
        batched_s = min(batched_s, seconds)
        seconds, looped = _timed(_per_frame)
        looped_s = min(looped_s, seconds)

    for got, want in zip(batched, looped):
        assert got.shape == want.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    speedup = looped_s / batched_s
    with capsys.disabled():
        print(
            f"\nscene generation, dense_crowd {CONFIG.num_samples} frames "
            f"{CONFIG.image_height}x{CONFIG.image_width}: per-frame "
            f"{looped_s * 1e3:.1f} ms, batched {batched_s * 1e3:.1f} ms "
            f"-> {speedup:.1f}x"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"batched generation is only {speedup:.1f}x faster than the per-frame "
        f"loop (floor {MIN_SPEEDUP}x)"
    )
