"""Benchmark: per-epoch checkpointing overhead of ``SplitTrainer.fit``.

Times an identical seeded training run with and without ``checkpoint_path``
(one atomic checkpoint archive per epoch — model weights, both optimizers,
RNG streams, ARQ statistics, history) and asserts the per-epoch overhead
stays below :data:`MAX_OVERHEAD_FRACTION` of the epoch time at the selected
scale.  Checkpointing must be cheap enough to leave on for every run.

``REPRO_BENCH_SCALE=smoke`` shrinks the run for CI smoke jobs;
``REPRO_BENCH_SCALE=paper`` runs the full configuration.
"""
from __future__ import annotations

import os
import time

from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer

#: Checkpointing may cost at most this fraction of the epoch time.
MAX_OVERHEAD_FRACTION = 0.10

#: Absolute per-epoch allowance (seconds).  The archive write is a small
#: fixed cost; at the smoke scale's ~10 ms micro-epochs it would dominate any
#: relative bound without representing a real regression, so the budget is
#: ``max(10% of epoch time, this floor)``.  At the fast and paper scales the
#: relative bound is the binding one.
ABSOLUTE_BUDGET_S_PER_EPOCH = 0.005

#: Epochs timed per variant (kept small: the bound is per-epoch).
BENCH_EPOCHS = 4

#: Timing repetitions; the minimum over repeats is compared.
REPEATS = 3


def _fit_seconds(scale, split, checkpoint_path) -> float:
    trainer = SplitTrainer(
        ExperimentConfig.for_scenario(
            scale.scenario,
            model=scale.base_model_config(),
            training=scale.training_config(),
        )
    )
    start = time.perf_counter()
    trainer.fit(
        split.train,
        split.validation,
        max_rounds=BENCH_EPOCHS,
        checkpoint_path=checkpoint_path,
    )
    return time.perf_counter() - start


def test_checkpoint_overhead_below_ten_percent(scale, bench_split, tmp_path, capsys):
    # Plain and checkpointed fits alternate, so a load burst on a shared host
    # slows both sides; each side keeps its fastest repeat.
    plain_s = checkpointed_s = float("inf")
    for _ in range(REPEATS):
        plain_s = min(plain_s, _fit_seconds(scale, bench_split, None))
        checkpointed_s = min(
            checkpointed_s, _fit_seconds(scale, bench_split, tmp_path / "bench.npz")
        )
    overhead = (checkpointed_s - plain_s) / plain_s
    per_epoch_ms = 1e3 * (checkpointed_s - plain_s) / BENCH_EPOCHS

    with capsys.disabled():
        print(
            f"\ncheckpoint overhead @ {os.environ.get('REPRO_BENCH_SCALE', 'fast')}: "
            f"plain {plain_s:.3f}s, checkpointed {checkpointed_s:.3f}s "
            f"({BENCH_EPOCHS} epochs) -> overhead {overhead * 100:.2f}% "
            f"({per_epoch_ms:.2f} ms/epoch)"
        )
    assert checkpointed_s > 0 and plain_s > 0
    budget_s = max(
        MAX_OVERHEAD_FRACTION * plain_s,
        ABSOLUTE_BUDGET_S_PER_EPOCH * BENCH_EPOCHS,
    )
    assert checkpointed_s - plain_s < budget_s, (
        f"per-epoch checkpointing costs {overhead * 100:.1f}% of epoch time "
        f"({per_epoch_ms:.2f} ms/epoch; budget "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}% or "
        f"{ABSOLUTE_BUDGET_S_PER_EPOCH * 1e3:.0f} ms/epoch)"
    )
