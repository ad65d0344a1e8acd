"""The stacked UE bank sharded over threads, against the bank on one worker.

:class:`StackedUEBank` cuts each group of members with one batch size into
``min(workers, members in group)`` contiguous slices and runs their stacked
passes on threads.  The worker count is
:func:`repro.utils.parallel.available_workers`, whose CPU count these tests
pin to 1, 2 and 3: every history, state tree and checkpoint file must come
out bit for bit the same, an error inside a shard must reach the caller, and
no thread may outlive a bank call.
"""
import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetTrainer, bank, shard_indices
from repro.split import ExperimentConfig, TrainingConfig
from repro.split.config import ModelConfig
from repro.utils import parallel

from tests.fleet.test_fleet_batched import _assert_same_run, _bank_and_oracle

MAX_ROUNDS = 2
WORKERS = (1, 2, 3)
SRC = Path(parallel.__file__).resolve().parents[2]


@pytest.fixture()
def workers(monkeypatch):
    """Set the CPU count the bank sizes its shards by."""

    def set_workers(count: int) -> None:
        monkeypatch.setattr(parallel, "_available_cpus", lambda: count)

    return set_workers


@pytest.fixture()
def config():
    # Two convolutions, so the sharded backward runs an input gradient too.
    return ExperimentConfig(
        model=ModelConfig(
            image_height=12,
            image_width=12,
            pooling_height=4,
            pooling_width=4,
            cnn_channels=(2, 3),
            rnn_hidden_size=8,
            head_hidden_size=4,
        ),
        training=TrainingConfig(
            batch_size=16, max_epochs=MAX_ROUNDS, steps_per_epoch=2, seed=5
        ),
    )


def _fit(config, split, num_ues, checkpoint_path=None):
    fleet_config = FleetConfig(num_ues=num_ues, mode="parallel_average")
    trainer = FleetTrainer(config, fleet_config)
    history = trainer.fit(
        split.train,
        split.validation,
        max_rounds=MAX_ROUNDS,
        checkpoint_path=checkpoint_path,
    )
    return trainer, history


@pytest.mark.parametrize("codec", ["identity", "uint8", "topk"])
@pytest.mark.parametrize(
    "num_ues, batch_sizes",
    [(7, {16: 7}), (12, {15: 2, 16: 10})],
    ids=["equal-n7", "uneven-n12"],
)
def test_sharded_fits_are_bitwise_equal(
    workers, config, small_split, tmp_path, codec, num_ues, batch_sizes
):
    config = dataclasses.replace(
        config, model=dataclasses.replace(config.model, codec=codec)
    )
    sizes = [
        min(config.training.batch_size, len(shard))
        for shard in shard_indices(len(small_split.train), num_ues)
    ]
    assert {size: sizes.count(size) for size in set(sizes)} == batch_sizes

    runs = {}
    for count in WORKERS:
        workers(count)
        path = tmp_path / f"{count}-workers.npz"
        trainer, history = _fit(config, small_split, num_ues, path)
        passes = trainer.fleet.bank._passes
        assert len(passes) == sum(min(count, n) for n in batch_sizes.values())
        for selector, _ in passes:
            members = np.arange(num_ues)[selector]
            assert len({sizes[member] for member in members}) == 1
        runs[count] = trainer, history, path.read_bytes()

    reference_trainer, reference, reference_bytes = runs[1]
    for count in WORKERS[1:]:
        trainer, history, checkpoint_bytes = runs[count]
        _assert_same_run(trainer, history, reference_trainer, reference)
        assert checkpoint_bytes == reference_bytes, f"{count} workers"


def test_an_error_in_a_shard_reaches_the_caller(
    workers, config, small_split, monkeypatch
):
    workers(2)
    original = bank.ue_forward

    def failing(plan, weights, images, *args, **kwargs):
        if images.shape[0] == 3:  # the second of the 4 + 3 member slices
            raise RuntimeError("shard failed")
        return original(plan, weights, images, *args, **kwargs)

    baseline = threading.active_count()
    _fit(config, small_split, 7)
    assert threading.active_count() == baseline

    monkeypatch.setattr(bank, "ue_forward", failing)
    with pytest.raises(RuntimeError, match="shard failed"):
        _fit(config, small_split, 7)
    assert threading.active_count() == baseline


def test_more_threads_than_cpus_under_fast_switching(workers):
    """9 members on 5 threads that switch every microsecond: each member's
    features, gradients and updates are written by one thread only, so the
    bank matches its one-worker run bit for bit."""
    members, steps = 9, 4
    rng = np.random.default_rng(0)
    images = rng.random((steps, members, 3, 2, 12, 12))
    cut_gradients = rng.standard_normal((steps, members, 3, 2, 9))
    runs = {}
    interval = sys.getswitchinterval()
    for count in (1, 5):
        workers(count)
        stacked, _ = _bank_and_oracle(members)
        features = []
        sys.setswitchinterval(1e-6)
        try:
            for step in range(steps):
                features.append(stacked.forward(images[step]))
                stacked.backward(cut_gradients[step])
                stacked.apply_updates(np.ones(members, dtype=bool))
        finally:
            sys.setswitchinterval(interval)
        assert len(stacked._passes) == count
        runs[count] = features, stacked.state_dict()

    features, state = runs[5]
    assert all(map(np.array_equal, features, runs[1][0]))
    for key, value in runs[1][1].items():
        assert np.array_equal(state[key], value), key


#: A sharded fit, then another in a forked child (cut off after 60 s), then
#: a fig3a whose jobs train in a 2-worker fork pool.  A thread pool kept
#: across bank calls would be inherited without its threads, and the child's
#: fit would wait on its queue forever.
_FIT_THEN_FORK = textwrap.dedent(
    """
    import os
    import signal
    from repro.experiments import run_fig3a, scale_from_name
    from repro.experiments.common import generate_dataset, prepare_split
    from repro.fleet import FleetConfig, FleetTrainer
    from repro.split import ExperimentConfig
    from repro.utils import parallel

    parallel._available_cpus = lambda: 2
    scale = scale_from_name("smoke")
    split = prepare_split(scale, generate_dataset(scale))
    config = ExperimentConfig(
        model=scale.base_model_config(), training=scale.training_config()
    )

    def sharded_fit():
        fleet = FleetConfig(num_ues=4, mode="parallel_average")
        trainer = FleetTrainer(config, fleet)
        trainer.fit(split.train, split.validation, max_rounds=1)
        assert len(trainer.fleet.bank._passes) > 1

    sharded_fit()
    child = os.fork()
    if child == 0:
        signal.alarm(60)
        sharded_fit()
        os._exit(0)
    _, status = os.waitpid(child, 0)
    assert status == 0, f"forked fit ended with status {status}"
    run_fig3a(scale, split=split)
    print("finished")
    """
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child process")
def test_sharded_fits_then_forks_finish():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _FIT_THEN_FORK],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().endswith("finished")
