"""The benchmark's workloads.

Each workload builds its inputs from a seed (:meth:`setup`), runs one untimed
warm-up (:meth:`warm_up`) and then exposes one timed operation (:meth:`op`)
that the harness repeats back to back from one client (a closed loop).  An op
checks its own outputs and raises :class:`CheckFailed` when they are wrong;
it returns the work it completed (``items``, in a unit fixed per workload)
and the output-derived layer statistics listed in :data:`OUTPUT_STATS`.
"""
from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.channel.arq import ArqStatistics
from repro.experiments import (
    PipelineOptions,
    experiment_specs,
    generate_dataset,
    prepare_split,
    run_fig3a,
    run_fig3b,
    scale_from_name,
)
from repro.experiments import sweep
from repro.fleet import FleetConfig, FleetTrainer
from repro.fleet.config import PARALLEL_AVERAGE
from repro.fleet.fleet import shard_indices
from repro.split import ExperimentConfig

#: Layer statistics read from an op's outputs rather than from spans, with
#: their units.  A workload whose outputs lack one reports 0.
OUTPUT_STATS = {
    "channel.arq.mean_slots_per_step": "slots",
    "channel.arq.uplink_first_attempt_success_rate": "ratio",
    "split.trainer.lost_step_frac": "ratio",
    "fleet.medium_occupancy": "ratio",
}


class CheckFailed(Exception):
    """An op's outputs failed the workload's correctness check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpResult:
    """What one op completed: ``items`` of work and its output statistics."""

    items: int
    stats: Dict[str, float] = field(default_factory=dict)


def _arq_stats(communication: Optional[ArqStatistics]) -> Dict[str, float]:
    if communication is None or not communication.steps:
        return {}
    return {
        "channel.arq.mean_slots_per_step": communication.mean_slots_per_step,
        "channel.arq.uplink_first_attempt_success_rate": (
            communication.uplink_first_attempt_success_rate
        ),
    }


def _curves(histories) -> Dict[str, tuple]:
    """Per-scheme (elapsed, RMSE) learning curves, for bitwise comparison."""
    return {
        name: (history.elapsed_times_s, history.validation_rmse_curve_db)
        for name, history in histories.items()
    }


def _check_paper_shape(histories) -> None:
    """The scale-robust Fig. 3a observations of the fig3a benchmark test."""
    check(len(histories) == 5, f"expected 5 schemes, got {sorted(histories)}")
    for name, history in histories.items():
        check(len(history.records) >= 1, f"{name}: empty learning curve")
        check(np.isfinite(history.final_rmse_db), f"{name}: non-finite RMSE")
        check(
            bool(np.all(np.diff(history.elapsed_times_s) > 0)),
            f"{name}: simulated time does not increase",
        )

    def time_per_epoch(history) -> float:
        return history.total_elapsed_s / len(history.records)

    rf_only = histories["rf-only"]
    one_pixel = histories["img+rf-1pixel"]
    small_pool = next(
        history
        for name, history in histories.items()
        if name.startswith("img+rf-") and name != "img+rf-1pixel"
    )
    check(
        time_per_epoch(rf_only) < time_per_epoch(one_pixel),
        "RF-only must spend the least simulated time per epoch",
    )
    check(
        time_per_epoch(one_pixel) <= time_per_epoch(small_pool) + 1e-9,
        "one-pixel pooling must not spend more time per epoch than 4x4 pooling",
    )
    best_image = min(
        history.best_rmse_db for name, history in histories.items() if name != "rf-only"
    )
    check(
        best_image <= rf_only.best_rmse_db * 1.35,
        "the image schemes must stay competitive with RF-only",
    )


class Fig3aFast:
    """``run_fig3a`` on a split prebuilt in setup: five schemes trained.

    Items are training samples (epochs x steps x batch, summed over schemes).
    """

    name = "fig3a-fast"

    #: Epochs of the warm-up run, whose curves must be a bitwise prefix of
    #: every measured op's curves.
    WARM_UP_EPOCHS = 3

    def __init__(self, scale_name: str = "fast"):
        self.base = scale_from_name(scale_name)

    def setup(self, seed: int, workdir: Path) -> None:
        self.scale = self.base.with_seed(seed)
        self.split = prepare_split(self.scale, generate_dataset(self.scale))
        self.first: Optional[Dict[str, tuple]] = None

    def warm_up(self) -> None:
        short = replace(
            self.scale, max_epochs=min(self.WARM_UP_EPOCHS, self.scale.max_epochs)
        )
        self.prefix = _curves(run_fig3a(short, split=self.split).histories)

    def op(self) -> OpResult:
        histories = run_fig3a(self.scale, split=self.split).histories
        curves = _curves(histories)
        for name, (elapsed, rmse) in curves.items():
            short_elapsed, short_rmse = self.prefix[name]
            check(
                np.array_equal(elapsed[: len(short_elapsed)], short_elapsed)
                and np.array_equal(rmse[: len(short_rmse)], short_rmse),
                f"{name}: curve differs from the warm-up run's prefix",
            )
            if self.first is not None:
                check(
                    np.array_equal(elapsed, self.first[name][0])
                    and np.array_equal(rmse, self.first[name][1]),
                    f"{name}: curve differs from the first op's",
                )
        self.first = self.first or curves
        _check_paper_shape(histories)

        training = self.scale.training_config()
        steps = sum(len(h.records) * training.steps_per_epoch for h in histories.values())
        lost = sum(r.lost_steps for h in histories.values() for r in h.records)
        communication = ArqStatistics()
        for history in histories.values():
            if history.communication is not None:
                communication = communication.merge(history.communication)
        return OpResult(
            items=steps * training.batch_size,
            stats={
                **_arq_stats(communication),
                "split.trainer.lost_step_frac": lost / steps,
            },
        )


class FleetParallelAverage:
    """``FleetTrainer.fit`` in parallel-average mode, checkpointing each round.

    Items are training samples (member-steps x per-member batch).
    """

    name = "fleet-n260"

    def __init__(self, scale_name: str = "fast", num_ues: int = 260, rounds: int = 5):
        self.base = scale_from_name(scale_name)
        self.num_ues = num_ues
        self.rounds = rounds

    def setup(self, seed: int, workdir: Path) -> None:
        scale = self.base.with_seed(seed)
        self.split = prepare_split(scale, generate_dataset(scale))
        self.config = ExperimentConfig.for_scenario(
            scale.scenario,
            model=scale.base_model_config(),
            training=scale.training_config(),
        )
        self.fleet_config = FleetConfig(num_ues=self.num_ues, mode=PARALLEL_AVERAGE)
        # The batched backend stacks equal per-member batches only; uneven
        # shards fall back to the per-member loop without telling anyone, so
        # the workload refuses to time that path.
        batch_sizes = {
            min(self.config.training.batch_size, len(shard))
            for shard in shard_indices(len(self.split.train), self.num_ues)
        }
        if self.fleet_config.resolved_backend() != "batched" or len(batch_sizes) != 1:
            raise ValueError(
                f"{len(self.split.train)} training windows over {self.num_ues} UEs "
                "do not give the equal shards the batched backend needs"
            )
        self.member_batch = batch_sizes.pop()
        self.checkpoint = workdir / "fleet.npz"
        self.first: Optional[np.ndarray] = None

    def _fit(self, rounds: int):
        trainer = FleetTrainer(self.config, self.fleet_config)
        return trainer.fit(
            self.split.train,
            self.split.validation,
            max_rounds=rounds,
            checkpoint_path=self.checkpoint,
            checkpoint_every=1,
        )

    def warm_up(self) -> None:
        self._fit(1)

    def op(self) -> OpResult:
        history = self._fit(self.rounds)
        check(len(history.records) >= 1, "no rounds recorded")
        for record in history.records:
            check(np.isfinite(record.validation_rmse_db), "non-finite validation RMSE")
            check(
                0.0 < record.medium_occupancy <= 1.0,
                f"round {record.round}: occupancy {record.medium_occupancy}",
            )
        check(0.0 < history.medium_occupancy <= 1.0, "run occupancy out of (0, 1]")
        records = np.array([astuple(record) for record in history.records], dtype=float)
        if self.first is not None:
            check(
                np.array_equal(records, self.first, equal_nan=True),
                "rounds differ from the first op's",
            )
        self.first = records if self.first is None else self.first

        steps = sum(record.steps for record in history.records)
        lost = sum(record.lost_steps for record in history.records)
        return OpResult(
            items=steps * self.member_batch,
            stats={
                **_arq_stats(history.communication),
                "split.trainer.lost_step_frac": lost / steps,
                "fleet.medium_occupancy": history.medium_occupancy,
            },
        )


class SweepCold:
    """Serial ``table1`` sweeps into a fresh dataset cache, then warm.

    Each scenario sweeps its own block of seeds: scenarios run at one seed
    share that seed's pedestrian traffic, so a {scenario x seed} grid would
    repeat one traffic sample per seed.  Render cost follows the traffic,
    and independent seeds average it out within an op.  Items are frames
    (one depth image and its received power) produced by the cold pass plus
    those served from the cache by the warm pass.
    """

    name = "sweep-cold"
    SCENARIOS = ("paper_baseline", "dense_crowd", "long_corridor")

    def __init__(self, scale_name: str = "fast", seeds_per_scenario: int = 6):
        self.scale_name = scale_name
        self.seeds_per_scenario = seeds_per_scenario

    def setup(self, seed: int, workdir: Path) -> None:
        count = self.seeds_per_scenario
        first = seed * count * len(self.SCENARIOS)
        self.grids = {
            scenario: tuple(range(first + k * count, first + (k + 1) * count))
            for k, scenario in enumerate(self.SCENARIOS)
        }
        self.workdir = workdir
        self.sweeps = 0
        # Oracle for the first paper-baseline cell, computed without the
        # sweep and without the dataset cache.
        scale = scale_from_name(self.scale_name).with_seed(self.grids["paper_baseline"][0])
        self.oracle = experiment_specs()["table1"].run_cell(
            scale, dataset=generate_dataset(scale)
        )

    def _sweep(self, cache: Path, scenario: str, seeds: tuple) -> List[dict]:
        """One single-scenario sweep; returns its cells in seed order."""
        artifact = sweep.run_sweep(
            sweep.SweepConfig(
                scenarios=(scenario,),
                seeds=seeds,
                experiment="table1",
                scale=self.scale_name,
                parallel=False,
                cache_dir=str(cache),
            )
        )
        return artifact["scenarios"][scenario]["cells"]

    def _cold_then_warm(self, grids: Dict[str, tuple]) -> int:
        """Sweep ``grids`` cold and then warm in a fresh cache; returns frames."""
        self.sweeps += 1
        cache = self.workdir / f"cache-{self.sweeps}"
        cold = {scenario: self._sweep(cache, scenario, seeds) for scenario, seeds in grids.items()}
        warm = {scenario: self._sweep(cache, scenario, seeds) for scenario, seeds in grids.items()}
        cells = 0
        for scenario, seeds in grids.items():
            check(
                [cell["seed"] for cell in cold[scenario]] == list(seeds),
                f"{scenario}: cells do not match the seeds",
            )
            for cold_cell, warm_cell in zip(cold[scenario], warm[scenario]):
                check(not cold_cell["dataset_cache_hit"], f"{scenario}: cold cache hit")
                check(warm_cell["dataset_cache_hit"], f"{scenario}: warm cache miss")
                check(
                    warm_cell["metrics"] == cold_cell["metrics"],
                    f"{scenario}: warm metrics differ from the cold pass",
                )
                cells += 1
        check(
            cold["paper_baseline"][0]["metrics"] == self.oracle,
            "paper_baseline cell differs from the direct table1 run",
        )
        return 2 * cells * scale_from_name(self.scale_name).num_samples

    def warm_up(self) -> None:
        self._cold_then_warm({"paper_baseline": self.grids["paper_baseline"][:1]})

    def op(self) -> OpResult:
        return OpResult(items=self._cold_then_warm(self.grids))


class Fig3bCached:
    """Cache-hit ``run_fig3b``: three checkpoint loads plus inference.

    Setup trains the three schemes into a fresh model cache; their training
    length only changes setup, so it is cut to :data:`TRAIN_EPOCHS`.  Items
    are predictions.
    """

    name = "fig3b-cached"
    TRAIN_EPOCHS = 5

    def __init__(self, scale_name: str = "fast"):
        self.base = scale_from_name(scale_name)

    def setup(self, seed: int, workdir: Path) -> None:
        scale = self.base.with_seed(seed)
        self.scale = replace(scale, max_epochs=min(self.TRAIN_EPOCHS, scale.max_epochs))
        self.split = prepare_split(self.scale, generate_dataset(self.scale))
        self.models = workdir / "models"
        self.options = PipelineOptions(model_cache_dir=str(self.models))
        self.fresh = run_fig3b(self.scale, split=self.split, options=self.options)
        self.entries = self._cache_entries()
        check(len(self.entries) == 3, f"expected 3 cached models, got {self.entries}")

    def _cache_entries(self) -> Dict[str, int]:
        return {
            entry.name: entry.stat().st_mtime_ns for entry in os.scandir(self.models)
        }

    def warm_up(self) -> None:
        self.op()

    def op(self) -> OpResult:
        predictions = run_fig3b(self.scale, split=self.split, options=self.options).predictions
        check(list(predictions) == list(self.fresh.predictions), "scheme set changed")
        for name, fresh in self.fresh.predictions.items():
            check(
                np.array_equal(predictions[name].predictions_dbm, fresh.predictions_dbm),
                f"{name}: cache-hit trace differs from the freshly trained one",
            )
        check(self._cache_entries() == self.entries, "model cache was rewritten")
        return OpResult(items=sum(len(p.predictions_dbm) for p in predictions.values()))


#: Workload factories by name, in benchmark order.
WORKLOADS = {
    workload.name: workload
    for workload in (Fig3aFast, FleetParallelAverage, SweepCold, Fig3bCached)
}
