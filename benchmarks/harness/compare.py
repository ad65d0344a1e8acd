"""Compare two benchmark results files metric by metric.

    python3 benchmarks/harness/compare.py parent.json change.json

Both files come from ``run.py --out``.  For every workload and metric in
both, the report gives each side's median and quartiles and the ratio
change/parent with its base.  Each end-to-end metric also gets a verdict
under the bound ``BENCHMARK.json`` fixes for it:

* ``unresolved``: one side's spread (quartile distance over median) exceeds
  the bound, and not every run of the change beats every run of the parent;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``better``: the change wins at least nine tenths of the run pairs and its
  median beats the parent's by more than the parent's own spread;
* ``unchanged``: otherwise.

The exit code is 1 when any end-to-end metric reads ``worse``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds() -> Dict[str, Tuple[str, Optional[float]]]:
    """``{metric: (better, bound)}``; per-layer metrics have no bound."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return bounds


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / abs(metric["median"]) if metric["median"] else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """Verdict for one metric summarized as in ``run.summarize``."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive means the change reads worse, as a share of the parent median.
    worse_by = sign * (change["median"] - parent["median"]) / abs(parent["median"])
    pairs: List[Tuple[float, float]] = list(zip(parent["values"], change["values"]))
    wins = sum(sign * (new - old) < 0 for old, new in pairs)
    all_better = max(sign * v for v in change["values"]) < min(sign * v for v in parent["values"])
    if max(_spread(parent), _spread(change)) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > _spread(parent):
        return "better"
    return "unchanged"


def compare(parent: dict, change: dict, bounds) -> Tuple[List[str], bool]:
    """Report lines and whether any end-to-end metric got worse."""
    lines = [
        f"parent {parent['env']['git_sha'][:12]} vs change {change['env']['git_sha'][:12]}",
        f"{'workload':<14s} {'metric':<48s} {'parent [q1, q3]':>32s} "
        f"{'change [q1, q3]':>32s} {'change/parent':>14s}  verdict",
    ]
    regressed = False
    for workload, old_entry in parent["workloads"].items():
        new_entry = change["workloads"].get(workload)
        if new_entry is None:
            lines.append(f"{workload:<14s} missing from the change's results")
            continue
        sections = [(old_entry["metrics"], new_entry["metrics"])]
        if "trace" in old_entry and "trace" in new_entry:
            sections.append((old_entry["trace"]["metrics"], new_entry["trace"]["metrics"]))
        for old_metrics, new_metrics in sections:
            for name, old in old_metrics.items():
                new = new_metrics.get(name)
                if new is None:
                    continue
                better, bound = bounds.get(name, ("lower", None))
                label = "-" if bound is None else verdict(old, new, better, bound)
                regressed |= label == "worse"
                ratio = new["median"] / old["median"] if old["median"] else float("nan")
                lines.append(
                    f"{workload:<14s} {name:<48s} "
                    f"{old['median']:>11.5g} [{old['q1']:.4g}, {old['q3']:.4g}] "
                    f"{new['median']:>11.5g} [{new['q1']:.4g}, {new['q3']:.4g}] "
                    f"{ratio:>8.3f} of {old['median']:.4g} {old['unit']}  {label}"
                )
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="results file of the parent commit")
    parser.add_argument("change", type=Path, help="results file of the change")
    args = parser.parse_args(argv)
    lines, regressed = compare(
        json.loads(args.parent.read_text()), json.loads(args.change.read_text()), load_bounds()
    )
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
