"""One experiment on one {scenario, seed} cell: the sweep's one-cell case.

Runs any experiment of :func:`repro.experiments.pipeline.experiment_specs`
(``fig2`` / ``fig3a`` / ``fig3b`` / ``table1`` / ``fleet`` / ``pareto``)
through :func:`repro.experiments.sweep.run_cell`, the code every sweep cell
runs, with the sweep's flags for the scale, the dataset cache and run-state
persistence::

    python -m repro.experiments.run --experiment fig3a --scale fast \\
        --checkpoint-dir ckpts --resume --output fig3a.json

Datasets flow through the content-addressed dataset cache (``--cache-dir``,
default ``REPRO_CACHE_DIR`` or the library cache), as in a sweep.
``--checkpoint-dir`` writes an epoch-granular checkpoint per training job;
a killed run re-executed with ``--resume`` continues each job from its last
checkpoint and produces the identical artifact.  ``--model-cache-dir``
enables the content-addressed trained-model cache, so re-running the same
experiment (or a sweep sharing the cache) skips training entirely.

The experiment options go to the runners that take them, and naming one
for an experiment whose runner does not is a usage error:

* ``fleet``: ``--ues``, ``--modes``, ``--scheduler``, ``--jitter``,
  ``--max-rounds``;
* ``pareto``: ``--codecs``, ``--topk-fraction``, ``--max-rounds``.

For these two the artifact also holds the whole figure under ``figure``
(per-round RMSE curves, ``comm_*`` statistics, occupancy or payload bits)::

    python -m repro.experiments.run --experiment fleet --scale fast \\
        --ues 1 2 4 --modes rotation parallel_average --output fleet.json
"""
from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

from repro.experiments.pipeline import (
    PIPELINE_ARTIFACT_SCHEMA_VERSION,
    PipelineOptions,
    experiment_specs,
    write_artifact,
)
from repro.experiments.sweep import add_cell_arguments, run_cell
from repro.fleet import FLEET_MODES, SCHEDULERS
from repro.split.codecs import CODEC_NAMES

#: The experiment options: flag -> the runner keyword it sets.
EXPERIMENT_OPTIONS = {
    "--ues": "ue_counts",
    "--modes": "modes",
    "--scheduler": "scheduler",
    "--jitter": "placement_jitter",
    "--codecs": "codecs",
    "--topk-fraction": "topk_fraction",
    "--max-rounds": "max_rounds",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run",
        description="Run one paper experiment on one {scenario, seed} cell.",
    )
    parser.add_argument(
        "--experiment",
        required=True,
        choices=sorted(experiment_specs()),
        help="experiment to run",
    )
    parser.add_argument(
        "--scenario",
        default="paper_baseline",
        metavar="NAME",
        help="registered scenario name (default: paper_baseline)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="base RNG seed (default: 0)"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="artifact JSON path (default: <experiment>-<scale>.json)",
    )
    add_cell_arguments(parser)
    group = parser.add_argument_group(
        "experiment options",
        "each applies only to the experiments named in its help",
    )
    group.add_argument(
        "--ues",
        dest="ue_counts",
        type=int,
        nargs="+",
        metavar="N",
        help="fleet: fleet sizes to run (default: 1 2 4)",
    )
    group.add_argument(
        "--modes",
        nargs="+",
        choices=FLEET_MODES,
        help="fleet: fleet modes (default: both)",
    )
    group.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        help="fleet: medium scheduler (default: round_robin)",
    )
    group.add_argument(
        "--jitter",
        dest="placement_jitter",
        type=float,
        metavar="FRACTION",
        help="fleet: per-UE placement jitter fraction (default: fleet default)",
    )
    group.add_argument(
        "--codecs",
        nargs="+",
        choices=CODEC_NAMES,
        help="pareto: cut-layer codecs to run (default: all)",
    )
    group.add_argument(
        "--topk-fraction",
        type=float,
        metavar="FRACTION",
        help="pareto: kept fraction for the topk cells (default: model default)",
    )
    group.add_argument(
        "--max-rounds",
        type=int,
        metavar="R",
        help="fleet, pareto: cap rounds (epochs) per training job "
        "(default: the scale's epoch budget)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = experiment_specs()[args.experiment]
    keywords = inspect.signature(spec.run).parameters
    run_kwargs = {}
    for flag, keyword in EXPERIMENT_OPTIONS.items():
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword not in keywords:
            parser.error(f"{flag} does not apply to --experiment {spec.name}")
        run_kwargs[keyword] = value
    cell, result = run_cell(
        spec.name,
        args.scale,
        args.scenario,
        args.seed,
        cache_dir=args.cache_dir,
        force_regenerate=args.force_regenerate,
        options=PipelineOptions(
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            model_cache_dir=args.model_cache_dir,
        ),
        **run_kwargs,
    )
    metrics = cell["metrics"]
    artifact = {
        "schema_version": PIPELINE_ARTIFACT_SCHEMA_VERSION,
        "experiment": spec.name,
        "scale": args.scale,
        "scenario": cell["scenario"],
        "seed": cell["seed"],
        "metrics": metrics,
    }
    if spec.figure is not None:
        artifact["figure"] = spec.figure(result)
    output = args.output or f"{spec.name}-{args.scale}.json"
    write_artifact(artifact, output)
    try:
        for key in sorted(metrics):
            print(f"{key:<48s} {metrics[key]:>12.4f}")
        print(f"artifact written to {output}")
    except BrokenPipeError:  # pragma: no cover - e.g. `... | head`
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
