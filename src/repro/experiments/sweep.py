"""Parallel multi-scenario / multi-seed sweep orchestrator.

``run_sweep`` executes a {scenario x seed} grid of one experiment of
:func:`~repro.experiments.pipeline.experiment_specs` (``fig2`` / ``fig3a`` /
``fig3b`` / ``table1`` / ``fleet`` / ``pareto``), farming cells out to
forked workers (:func:`repro.utils.parallel.fork_each`).  Every cell runs
through :func:`run_cell`, which ``python -m repro.experiments.run`` calls
for its one cell.  Datasets flow through the
content-addressed on-disk cache (:mod:`repro.dataset.cache`), so repeated
sweeps — and different experiments over the same {scenario, seed, scale} —
skip generation entirely.  The result is an aggregated JSON artifact with
per-cell metrics plus mean/std/min/max across seeds for every scenario.

Sweeps are **resumable**: with an ``--output`` path, per-cell completion is
persisted into the artifact file incrementally (atomically, after every
cell), and re-running with ``--resume`` skips the completed cells.  With a
``--checkpoint-dir``, the in-flight cells' training jobs also resume from
their last epoch checkpoint (see :mod:`repro.experiments.pipeline`), so a
killed sweep loses at most the epochs since the last checkpoint.  Use
:func:`canonical_artifact` to compare artifacts across runs: a resumed sweep
reproduces the uninterrupted sweep's canonical artifact byte for byte
(timing/cache metadata necessarily differs).

CLI::

    python -m repro.experiments.sweep \
        --scenarios paper_baseline dense_crowd --seeds 2 \
        --experiment fig3b --scale fast --output sweep.json \
        --checkpoint-dir ckpts --resume

``--list-scenarios`` prints the registered catalog.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.cache import config_fingerprint, get_or_generate, load_cached_dataset
from repro.experiments.common import ExperimentScale, scale_from_name
from repro.experiments.pipeline import (
    PipelineOptions,
    experiment_specs,
    write_artifact,
)
from repro.scenarios import Scenario, get_scenario, scenario_names
from repro.utils import parallel
from repro.utils.logging import get_logger
from repro.utils.validation import integer

logger = get_logger("experiments.sweep")

#: Version of the artifact JSON layout.  v2 added the per-scheme streaming
#: communication metrics (``comm_*`` keys) to the fig3a cell metrics; v3 adds
#: the optional top-level ``resume`` bookkeeping block on resumed sweeps (the
#: cell schema is unchanged); v4 adds the ``pareto`` experiment's per-codec
#: accuracy/``comm_*``/payload-bit metrics.
ARTIFACT_SCHEMA_VERSION = 4

#: Top-level artifact keys that describe the run environment, not the
#: science; :func:`canonical_artifact` strips them.
VOLATILE_ARTIFACT_KEYS = ("wall_clock_s", "parallel", "max_workers", "resume")

#: Per-cell keys that describe execution timing/caching, not the science.
VOLATILE_CELL_KEYS = ("dataset_seconds", "experiment_seconds", "dataset_cache_hit")

# -- sweep configuration ------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a {scenario x seed} grid of a single experiment.

    Attributes:
        scenarios: registered scenario names (or instances) forming the grid
            rows; normalized to names at construction.
        seeds: base RNG seeds forming the grid columns.
        experiment: a key of
            :func:`~repro.experiments.pipeline.experiment_specs`.
        scale: experiment scale name (``paper`` / ``fast`` / ``smoke``).
        parallel: run cells in forked workers (here, one after another,
            when False).
        max_workers: how many workers to fork, at most one per cell
            (default: the CPUs this process may run on, and at least two, so
            the fork path runs even on single-CPU hosts).  One worker, one
            cell left to run, or a platform without ``fork`` runs the cells
            here.
        cache_dir: dataset cache directory (default: the library cache).
        output_path: artifact JSON destination (``None`` = do not write).
            Completed cells are persisted into this file incrementally, which
            is what makes the sweep resumable.
        force_regenerate: bypass the dataset cache.
        resume: skip cells already completed in the artifact at
            ``output_path`` and resume in-flight training jobs from their
            checkpoints under ``checkpoint_dir``.
        checkpoint_dir: root directory for per-cell training checkpoints
            (``None`` disables epoch-granular checkpointing).
        model_cache_dir: content-addressed trained-model cache shared across
            sweeps (``None`` disables it).
    """

    scenarios: tuple
    seeds: tuple
    experiment: str = "fig3b"
    scale: str = "fast"
    parallel: bool = True
    max_workers: Optional[int] = None
    cache_dir: Optional[str] = None
    output_path: Optional[str] = None
    force_regenerate: bool = False
    resume: bool = False
    checkpoint_dir: Optional[str] = None
    model_cache_dir: Optional[str] = None

    def __post_init__(self):
        if not tuple(self.scenarios):
            raise ValueError("at least one scenario is required")
        # Normalize instances to names right away (names are what cache
        # keys and artifacts hold).  Unknown names raise KeyError here;
        # an unregistered bare instance would dangle, so reject it too.
        from repro.scenarios import all_scenarios

        names = []
        for entry in self.scenarios:
            scenario = get_scenario(entry)
            if all_scenarios().get(scenario.name) != scenario:
                raise ValueError(
                    f"scenario {scenario.name!r} is not registered; call "
                    "repro.scenarios.register() before sweeping it"
                )
            names.append(scenario.name)
        object.__setattr__(self, "scenarios", tuple(names))
        object.__setattr__(
            self, "seeds", tuple(integer("seed", seed) for seed in self.seeds)
        )
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError("duplicate scenario names in sweep")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds in sweep")
        experiments = experiment_specs()
        if self.experiment not in experiments:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(experiments)}"
            )
        scale_from_name(self.scale)  # validates the name
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.resume and self.output_path is None:
            raise ValueError("resume requires an output_path to read back")


def _cell_options(
    config: SweepConfig, scenario: Scenario, seed: int
) -> Optional[PipelineOptions]:
    """Run-state persistence options for one cell (``None`` = vanilla run)."""
    if not (config.checkpoint_dir or config.model_cache_dir or config.resume):
        return None
    checkpoint_dir = None
    if config.checkpoint_dir is not None:
        cell_key = (
            f"{config.experiment}-{config.scale}-{scenario.fingerprint}-s{seed}"
        )
        checkpoint_dir = os.path.join(config.checkpoint_dir, cell_key)
    return PipelineOptions(
        checkpoint_dir=checkpoint_dir,
        resume=config.resume,
        model_cache_dir=config.model_cache_dir,
    )


def _cell_scale(scale: str, scenario, seed: int) -> ExperimentScale:
    """The scale of one cell: a named scale bound to a scenario and a seed."""
    return scale_from_name(scale).with_scenario(scenario).with_seed(seed)


def run_cell(
    experiment: str,
    scale: str,
    scenario,
    seed: int,
    cache_dir: Optional[str] = None,
    force_regenerate: bool = False,
    options: Optional[PipelineOptions] = None,
    **run_kwargs,
) -> Tuple[Dict[str, object], Any]:
    """Run one {scenario, seed} cell: cached dataset -> experiment -> metrics.

    Args:
        experiment: a key of
            :func:`~repro.experiments.pipeline.experiment_specs`.
        scale: scale name (``paper`` / ``fast`` / ``smoke``).
        scenario: registered scenario name (or instance).
        seed: base RNG seed.
        cache_dir: dataset cache directory (default: the library cache).
        force_regenerate: regenerate the dataset even on a cache hit.
        options: the runner's run-state persistence knobs.
        **run_kwargs: runner keywords; they override the spec's
            ``run_kwargs``.

    Returns:
        The cell record (a sweep artifact's per-cell entry) and the runner's
        result object.
    """
    spec = experiment_specs()[experiment]
    cell_scale = _cell_scale(scale, scenario, seed)
    config = cell_scale.dataset_config()
    dataset_start = time.perf_counter()
    dataset = (
        None if force_regenerate else load_cached_dataset(config, cache_dir=cache_dir)
    )
    cache_hit = dataset is not None
    if dataset is None:
        dataset = get_or_generate(config, cache_dir=cache_dir, force_regenerate=True)
    dataset_seconds = time.perf_counter() - dataset_start
    experiment_start = time.perf_counter()
    result = spec.run(
        scale=cell_scale,
        dataset=dataset,
        options=options,
        **{**spec.run_kwargs, **run_kwargs},
    )
    metrics = spec.metrics(result)
    experiment_seconds = time.perf_counter() - experiment_start
    cell = {
        "scenario": cell_scale.scenario,
        "seed": cell_scale.seed,
        "dataset_fingerprint": config_fingerprint(config),
        "dataset_cache_hit": bool(cache_hit),
        "dataset_seconds": round(dataset_seconds, 4),
        "experiment_seconds": round(experiment_seconds, 4),
        "metrics": {key: float(value) for key, value in sorted(metrics.items())},
    }
    return cell, result


def _aggregate_cells(cells: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Mean/std/min/max of every metric across one scenario's seeds."""
    keys: List[str] = sorted({key for cell in cells for key in cell["metrics"]})
    aggregate: Dict[str, Dict[str, float]] = {}
    for key in keys:
        values = np.array(
            [cell["metrics"][key] for cell in cells if key in cell["metrics"]],
            dtype=np.float64,
        )
        aggregate[key] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
            "num_seeds": int(values.size),
        }
    return aggregate


# -- resume bookkeeping ---------------------------------------------------------------


def _load_completed_cells(config: SweepConfig) -> Dict[str, Dict[str, object]]:
    """Completed cells (by dataset fingerprint) from a previous artifact.

    Accepts both a partial artifact (a sweep killed mid-run) and a final one
    (re-running a finished sweep skips everything).  A mismatched experiment
    or scale invalidates the artifact: the sweep restarts from scratch.
    """
    path = Path(config.output_path)
    if not path.exists():
        return {}
    try:
        stored = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        logger.warning("unreadable artifact %s; restarting the sweep", path)
        return {}
    if (
        stored.get("experiment") != config.experiment
        or stored.get("scale") != config.scale
    ):
        logger.warning(
            "artifact %s belongs to a different sweep "
            "(experiment/scale mismatch); restarting",
            path,
        )
        return {}
    if stored.get("partial"):
        cells = stored.get("completed_cells", [])
    else:
        cells = [
            cell
            for entry in stored.get("scenarios", {}).values()
            for cell in entry.get("cells", [])
            if "deduplicated_from" not in cell
        ]
    completed: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        fingerprint = cell.get("dataset_fingerprint")
        if fingerprint and "metrics" in cell:
            completed[str(fingerprint)] = cell
    return completed


def _persist_partial(
    config: SweepConfig, unique_cells: Sequence[Optional[Dict[str, object]]]
) -> None:
    """Atomically persist the completed cells so far into the artifact file."""
    if config.output_path is None:
        return
    write_artifact(
        {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "experiment": config.experiment,
            "scale": config.scale,
            "seeds": list(config.seeds),
            "partial": True,
            "completed_cells": [cell for cell in unique_cells if cell is not None],
        },
        config.output_path,
    )


def canonical_artifact(artifact: Dict[str, object]) -> Dict[str, object]:
    """The artifact minus run-environment metadata (timings, pool shape,
    cache hits, resume bookkeeping).

    Two sweeps over the same grid — serial or parallel, fresh or resumed —
    produce byte-identical canonical artifacts
    (``json.dumps(..., sort_keys=True)``), which is how the kill-and-resume
    CI smoke and the equivalence tests compare runs.
    """
    canonical = copy.deepcopy(artifact)
    for key in VOLATILE_ARTIFACT_KEYS:
        canonical.pop(key, None)
    for entry in canonical.get("scenarios", {}).values():
        for cell in entry.get("cells", []):
            for key in VOLATILE_CELL_KEYS:
                cell.pop(key, None)
    return canonical


# -- orchestration --------------------------------------------------------------------


def run_sweep(config: SweepConfig) -> Dict[str, object]:
    """Execute the sweep grid and return (and optionally write) the artifact."""
    scenarios = [get_scenario(name) for name in config.scenarios]
    grid = [(scenario, seed) for scenario in scenarios for seed in config.seeds]

    # Cells whose dataset fingerprints coincide (physically identical
    # scenarios at the same seed) would race to generate the same dataset in
    # parallel; run each unique cell once and fan the result back out.
    unique_index: Dict[str, int] = {}
    assignment: List[int] = []
    unique_grid: List[Tuple[Scenario, int]] = []
    unique_fingerprints: List[str] = []
    for scenario, seed in grid:
        cell_scale = _cell_scale(config.scale, scenario, seed)
        fingerprint = config_fingerprint(cell_scale.dataset_config())
        if fingerprint not in unique_index:
            unique_index[fingerprint] = len(unique_grid)
            unique_grid.append((scenario, seed))
            unique_fingerprints.append(fingerprint)
        assignment.append(unique_index[fingerprint])
    if len(unique_grid) < len(grid):
        logger.info(
            "%d of %d cells share physics with another cell; running %d",
            len(grid) - len(unique_grid),
            len(grid),
            len(unique_grid),
        )

    # Resume: pre-fill cells already completed by a previous (partial or
    # finished) run of the same sweep.
    completed = _load_completed_cells(config) if config.resume else {}
    unique_cells: List[Optional[Dict[str, object]]] = [
        completed.get(fingerprint) for fingerprint in unique_fingerprints
    ]
    skipped = sum(1 for cell in unique_cells if cell is not None)
    if config.resume:
        logger.info(
            "resume: skipping %d of %d unique cells already completed",
            skipped,
            len(unique_grid),
        )
    pending = [
        index for index, cell in enumerate(unique_cells) if cell is None
    ]

    def execute(position: int) -> Dict[str, object]:
        scenario, seed = unique_grid[pending[position]]
        cell, _ = run_cell(
            config.experiment,
            config.scale,
            scenario.name,
            seed,
            cache_dir=config.cache_dir,
            force_regenerate=config.force_regenerate,
            options=_cell_options(config, scenario, seed),
        )
        return cell

    def keep(position: int, cell: Dict[str, object]) -> None:
        # Persist after every completed cell, so a kill or a failed cell
        # loses no completed work.
        unique_cells[pending[position]] = cell
        _persist_partial(config, unique_cells)

    # At least two workers whenever parallelism is requested: even on a
    # single-CPU host the cells interleave and the fork path stays
    # exercised.
    requested = config.max_workers or max(parallel.available_workers(), 2)
    start = time.perf_counter()
    workers = parallel.fork_each(
        execute, len(pending), requested if config.parallel else 1, keep
    )
    wall_clock_s = time.perf_counter() - start

    cells = []
    for (scenario, _), index in zip(grid, assignment):
        cell = dict(unique_cells[index])
        executed_as = cell["scenario"]
        cell["scenario"] = scenario.name
        if scenario.name != executed_as:
            # This cell never executed: its metrics were copied from the
            # physically identical cell that did.  Zero the execution
            # metadata so timing/cache accounting stays honest.
            cell["deduplicated_from"] = executed_as
            cell["dataset_cache_hit"] = True
            cell["dataset_seconds"] = 0.0
            cell["experiment_seconds"] = 0.0
        cells.append(cell)

    by_scenario: Dict[str, List[Dict[str, object]]] = {
        scenario.name: [] for scenario in scenarios
    }
    for cell in cells:
        by_scenario[cell["scenario"]].append(cell)

    artifact: Dict[str, object] = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "experiment": config.experiment,
        "scale": config.scale,
        "seeds": list(config.seeds),
        "parallel": workers > 1,
        "max_workers": workers,
        "num_cells": len(cells),
        "wall_clock_s": round(wall_clock_s, 4),
        "scenarios": {
            scenario.name: {
                "scenario_hash": scenario.fingerprint,
                "description": scenario.description,
                "cells": sorted(
                    by_scenario[scenario.name], key=lambda cell: cell["seed"]
                ),
                "aggregate": _aggregate_cells(by_scenario[scenario.name]),
            }
            for scenario in scenarios
        },
    }
    if config.resume:
        artifact["resume"] = {
            "skipped_cells": skipped,
            "executed_cells": len(pending),
        }
    if config.output_path is not None:
        write_artifact(artifact, config.output_path)
    return artifact


def format_summary(artifact: Dict[str, object]) -> str:
    """Human-readable per-scenario mean +/- std table of the artifact."""
    lines = [
        f"sweep: experiment={artifact['experiment']} scale={artifact['scale']} "
        f"seeds={artifact['seeds']} cells={artifact['num_cells']} "
        f"wall-clock={artifact['wall_clock_s']:.1f}s "
        f"({'parallel x' + str(artifact['max_workers']) if artifact['parallel'] else 'serial'})"
    ]
    if "resume" in artifact:
        lines.append(
            f"  resume: skipped {artifact['resume']['skipped_cells']} completed "
            f"cells, executed {artifact['resume']['executed_cells']}"
        )
    for name, entry in artifact["scenarios"].items():
        hits = sum(1 for cell in entry["cells"] if cell["dataset_cache_hit"])
        lines.append(
            f"  {name} [{entry['scenario_hash']}] "
            f"(dataset cache hits {hits}/{len(entry['cells'])})"
        )
        for key, stats in entry["aggregate"].items():
            lines.append(
                f"    {key:<40s} {stats['mean']:>10.4f} +/- {stats['std']:.4f}"
            )
    return "\n".join(lines)


# -- CLI ----------------------------------------------------------------------------


def add_cell_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of a cell: its scale, its dataset cache and its run state.

    Shared by this module's CLI and ``python -m repro.experiments.run``.
    """
    parser.add_argument(
        "--scale",
        default="fast",
        choices=("paper", "fast", "smoke"),
        help="experiment scale (default: fast)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="dataset cache directory (default: library cache / REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--force-regenerate",
        action="store_true",
        help="ignore cached datasets and regenerate",
    )
    group = parser.add_argument_group("run-state persistence")
    group.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write epoch-granular training checkpoints under DIR",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume from existing checkpoints/artifacts instead of restarting",
    )
    group.add_argument(
        "--model-cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed trained-model cache directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run a {scenario x seed} sweep of one paper experiment.",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        help="registered scenario names (see --list-scenarios)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=2,
        metavar="N",
        help="number of seeds per scenario, enumerated 0..N-1 (default: 2)",
    )
    parser.add_argument(
        "--seed-list",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="explicit seeds (overrides --seeds)",
    )
    parser.add_argument(
        "--experiment",
        default="fig3b",
        choices=sorted(experiment_specs()),
        help="experiment to run per cell (default: fig3b)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="artifact JSON path (default: sweep-<experiment>-<scale>.json)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size (default: min(cells, max(CPUs, 2)))",
    )
    parser.add_argument(
        "--serial", action="store_true", help="disable the process pool"
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the registered scenario catalog and exit",
    )
    add_cell_arguments(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        for name in scenario_names():
            print(get_scenario(name).describe())
        return 0
    if not args.scenarios:
        build_parser().error("--scenarios is required (or use --list-scenarios)")
    seeds = tuple(args.seed_list) if args.seed_list else tuple(range(args.seeds))
    output = args.output or f"sweep-{args.experiment}-{args.scale}.json"
    config = SweepConfig(
        scenarios=tuple(args.scenarios),
        seeds=seeds,
        experiment=args.experiment,
        scale=args.scale,
        parallel=not args.serial,
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        output_path=output,
        force_regenerate=args.force_regenerate,
        resume=bool(args.resume),
        checkpoint_dir=args.checkpoint_dir,
        model_cache_dir=args.model_cache_dir,
    )
    artifact = run_sweep(config)
    try:
        print(format_summary(artifact))
        print(f"artifact written to {output}")
    except BrokenPipeError:  # e.g. `... | head`; the artifact is on disk
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
