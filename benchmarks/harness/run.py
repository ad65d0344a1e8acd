"""Benchmark entry point.

One run of one workload, in the form the command in ``BENCHMARK.json``
invokes it from the repository root::

    python3 benchmarks/harness/run.py --workload fig3a-fast --seed 0 --seconds 10 --trace 0

The run sets the workload up :data:`SETUP_REPEATS` times, runs one untimed
warm-up op, then runs ops back to back from one client for ``--seconds``.  It
prints every end-to-end metric with its unit and, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` the run sets up once, times
untraced ops for ``--seconds``, then traces ops for another ``--seconds``,
reports the per-layer metrics per traced op instead and writes the spans to
``.bench_work/trace-<workload>.json``.

Every workload, :data:`RUNS_PER_WORKLOAD` fresh subprocesses each, summarized
into a results file (add ``--trace`` for one traced subprocess per workload)::

    python3 benchmarks/harness/run.py --seed 0 --out results.json [--trace]

Compare two results files with ``benchmarks/harness/compare.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HARNESS = Path(__file__).resolve().parent
REPO = HARNESS.parents[1]

#: Scratch space inside the checkout: per-run work directories (removed when
#: the run ends) and trace files.
WORK_ROOT = REPO / ".bench_work"

SETUP_REPEATS = 3
RUNS_PER_WORKLOAD = 3
DEFAULT_SECONDS = 10.0

#: Every BLAS/OpenMP pool is pinned to one thread, so a run is one
#: single-threaded load-generating process.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TRACE_UNITS = {
    "trace.op_wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from harness.trace import COUNTED, WRITES_FILE, layer_names
    from harness.workloads import OUTPUT_STATS

    units = {f"{layer}.self_s": "s" for layer in layer_names()}
    units.update({f"{layer}.calls": "count" for layer in COUNTED})
    units.update({f"{layer}.bytes": "B" for layer in WRITES_FILE})
    units.update(OUTPUT_STATS)
    units.update(TRACE_UNITS)
    return units


@dataclass
class Measurement:
    """Ops run back to back: wall times, per-op throughput and failures."""

    durations: List[float] = field(default_factory=list)
    throughputs: List[float] = field(default_factory=list)
    failed: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    def run_op(self, workload) -> None:
        start = time.perf_counter()
        try:
            result = workload.op()
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            result = None
        self.durations.append(time.perf_counter() - start)
        if result is None:
            self.failed += 1
        else:
            self.throughputs.append(result.items / self.durations[-1])
            self.stats = result.stats

    def run_for(self, workload, seconds: float, each=contextlib.nullcontext) -> None:
        """Closed loop: ops back to back until ``seconds`` passed (at least one).

        Each op runs inside a fresh ``each()`` context.
        """
        deadline = time.perf_counter() + seconds
        while not self.durations or time.perf_counter() < deadline:
            with each():
                self.run_op(workload)

    def describe(self) -> str:
        """Op count and op-time percentiles, for the human-readable report."""
        ordered = sorted(self.durations)
        p90 = ordered[0] if len(ordered) < 2 else statistics.quantiles(
            ordered, n=10, method="inclusive"
        )[-1]
        return (
            f"{len(ordered)} ops: median {statistics.median(ordered):.6g} s, "
            f"p90 {p90:.6g} s, max {ordered[-1]:.6g} s"
        )


def run_workload(workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """One benchmark run of ``workload``; returns the result object."""
    from harness.trace import COUNTED, OP_SPAN, WRITES_FILE, Tracer, layer_names
    from harness.workloads import OUTPUT_STATS

    workdir = work_root / f"{workload.name}-{os.getpid()}"
    try:
        setup_s = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            target = workdir / f"setup-{repeat}"
            target.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(seed, target)
            setup_s.append(time.perf_counter() - start)
        workload.warm_up()
        untraced = Measurement()
        untraced.run_for(workload, seconds)
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "run_s": statistics.median(untraced.durations),
                "items_per_s": statistics.median(untraced.throughputs or [0.0]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            attempted, failed = len(untraced.durations), untraced.failed
            print(f"{workload.name}: {untraced.describe()}")
        else:
            tracer = Tracer()
            traced = Measurement()
            with tracer.installed():
                traced.run_for(workload, seconds, each=tracer.op)
            tracer.dump(work_root / f"trace-{workload.name}.json")
            # Per-layer metrics are per traced op.
            ops = len(traced.durations)
            self_times = tracer.self_times()
            counts = tracer.call_counts()
            metrics = {
                f"{layer}.self_s": self_times.get(layer, 0.0) / ops for layer in layer_names()
            }
            metrics.update({f"{layer}.calls": counts.get(layer, 0) / ops for layer in COUNTED})
            metrics.update(
                {
                    f"{layer}.bytes": tracer.bytes_written.get(layer, 0) / ops
                    for layer in WRITES_FILE
                }
            )
            metrics.update({stat: traced.stats.get(stat, 0.0) for stat in OUTPUT_STATS})
            metrics["trace.op_wall_s"] = tracer.op_wall_s() / ops
            metrics["trace.untraced_s"] = self_times[OP_SPAN] / ops
            metrics["trace.overhead_ratio"] = statistics.median(
                traced.durations
            ) / statistics.median(untraced.durations)
            units = per_layer_units()
            attempted = len(untraced.durations) + len(traced.durations)
            failed = untraced.failed + traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


# -- all workloads, several runs each ------------------------------------------------


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: List[dict]) -> dict:
    """Per-metric values, median and quartiles over several runs."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"], "values": values, **_quartiles(values)}
    return {
        "correct": all(run["correct"] for run in runs),
        "n_ops": [run["attempted"] for run in runs],
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def _spawn(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip()


def environment(seed: int, seconds: float) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "seed": seed,
        "seconds": seconds,
        "runs_per_workload": RUNS_PER_WORKLOAD,
    }


def _print_metrics(metrics: Dict[str, dict]) -> None:
    for name, metric in metrics.items():
        print(f"  {name:<52s} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: bool, out: Path) -> int:
    from harness.workloads import WORKLOADS

    results = {"schema_version": 1, "env": environment(seed, seconds), "workloads": {}}
    for name in WORKLOADS:
        entry = summarize([_spawn(name, seed, seconds, False) for _ in range(RUNS_PER_WORKLOAD)])
        if trace:
            entry["trace"] = summarize([_spawn(name, seed, seconds, True)])
        results["workloads"][name] = entry
        print(f"{name}: ops per run {entry['n_ops']}, failed {entry['failed']}")
        for section in (entry, entry.get("trace")):
            if section is not None:
                _print_metrics(
                    {key: {"value": m["median"], "unit": m["unit"]} for key, m in section["metrics"].items()}
                )
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(entry["correct"] for entry in results["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload once (default: all, summarized)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced ops",
    )
    parser.add_argument("--out", type=Path, help="results file (all-workload mode)")
    args = parser.parse_args(argv)

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no program sources at {REPO / 'src'}", file=sys.stderr)
        return 2
    # The harness is imported as the package ``harness``: its trace module
    # must not shadow the standard library's when this directory is first on
    # the path.
    sys.path[:] = [str(HARNESS.parent), str(REPO / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HARNESS
    ]
    from harness.workloads import WORKLOADS

    if args.workload is None:
        if args.out is None:
            parser.error("--out is required without --workload")
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    result = run_workload(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), WORK_ROOT
    )
    print(f"{args.workload}: seed {args.seed}, {result['attempted']} ops, {result['failed']} failed")
    _print_metrics(result["metrics"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
