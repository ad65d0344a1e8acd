"""Benchmark: per-epoch checkpointing overhead of ``SplitTrainer.fit``.

Times an identical seeded training run with and without ``checkpoint_path``
(one atomic checkpoint archive per epoch — model weights, both optimizers,
RNG streams, ARQ statistics, history) and asserts the time spent capturing
and saving those checkpoints stays below :data:`MAX_OVERHEAD_FRACTION` of
the plain run's time at the selected scale.  Checkpointing must be cheap
enough to leave on for every run.

The checkpoint time is read around the two calls that make a checkpoint
(``FleetTrainer._capture_checkpoint`` and ``Checkpoint.save``), not as the
difference of two whole-fit timings: on a shared host that difference swings
by more than the budget on scheduling noise alone.

``REPRO_BENCH_SCALE=smoke`` shrinks the run for CI smoke jobs;
``REPRO_BENCH_SCALE=paper`` runs the full configuration.
"""
from __future__ import annotations

import os
import time

from repro.fleet.trainer import FleetTrainer
from repro.split import ExperimentConfig
from repro.split.checkpoint import Checkpoint
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


def test_checkpoint_overhead_below_ten_percent(
    scale, bench_split, tmp_path, capsys, monkeypatch
):
    checkpoint_s = [0.0]

    def timed(function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                checkpoint_s[0] += time.perf_counter() - start

        return wrapper

    monkeypatch.setattr(
        FleetTrainer, "_capture_checkpoint", timed(FleetTrainer._capture_checkpoint)
    )
    monkeypatch.setattr(Checkpoint, "save", timed(Checkpoint.save))

    # Plain and checkpointed fits alternate, so a load burst on a shared host
    # slows both sides; each side keeps its fastest repeat.
    plain_s = checkpointed_s = overhead_s = float("inf")
    for _ in range(REPEATS):
        checkpoint_s[0] = 0.0
        plain_s = min(plain_s, _fit_seconds(scale, bench_split, None))
        assert checkpoint_s[0] == 0.0
        checkpointed_s = min(
            checkpointed_s, _fit_seconds(scale, bench_split, tmp_path / "bench.npz")
        )
        overhead_s = min(overhead_s, checkpoint_s[0])
    overhead = overhead_s / plain_s
    per_epoch_ms = 1e3 * overhead_s / BENCH_EPOCHS

    with capsys.disabled():
        print(
            f"\ncheckpoint overhead @ {os.environ.get('REPRO_BENCH_SCALE', 'fast')}: "
            f"plain {plain_s:.3f}s, checkpointed {checkpointed_s:.3f}s, "
            f"checkpoint writes {overhead_s:.3f}s "
            f"({BENCH_EPOCHS} epochs) -> overhead {overhead * 100:.2f}% "
            f"({per_epoch_ms:.2f} ms/epoch)"
        )
    assert checkpointed_s > 0 and plain_s > 0 and overhead_s > 0
    assert (tmp_path / "bench.npz").exists()
    budget_s = max(
        MAX_OVERHEAD_FRACTION * plain_s,
        ABSOLUTE_BUDGET_S_PER_EPOCH * BENCH_EPOCHS,
    )
    assert overhead_s < budget_s, (
        f"per-epoch checkpointing costs {overhead * 100:.1f}% of epoch time "
        f"({per_epoch_ms:.2f} ms/epoch; budget "
        f"{MAX_OVERHEAD_FRACTION * 100:.0f}% or "
        f"{ABSOLUTE_BUDGET_S_PER_EPOCH * 1e3:.0f} ms/epoch)"
    )
