"""Checks of the benchmark harness itself, at smoke scale."""
from __future__ import annotations

import inspect
import json
import re

import pytest

from harness import compare, run, trace, workloads

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMOKE_WORKLOADS = {
    "fig3a-fast": lambda: workloads.Fig3aFast("smoke"),
    "fleet-n260": lambda: workloads.FleetParallelAverage("smoke", num_ues=4, rounds=1),
    "sweep-cold": lambda: workloads.SweepCold("smoke", seeds_per_scenario=1),
    "fig3b-cached": lambda: workloads.Fig3bCached("smoke"),
}


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_harness_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(SMOKE_WORKLOADS) == set(workloads.WORKLOADS)
    assert run.END_TO_END_UNITS == _declared("end_to_end")
    assert run.per_layer_units() == _declared("per_layer")
    for name in list(run.END_TO_END_UNITS) + list(run.per_layer_units()):
        assert METRIC_NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(SMOKE_WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    result = run.run_workload(SMOKE_WORKLOADS[name](), 0, 0.0, True, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == _declared("per_layer")
    # Self times plus the untraced remainder account for the traced op.
    layers = sum(metrics[f"{layer}.self_s"] for layer in trace.layer_names())
    assert layers + metrics["trace.untraced_s"] == pytest.approx(metrics["trace.op_wall_s"])
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())["spans"]
    assert spans and spans[0]["name"] == trace.OP_SPAN
    if name == "fleet-n260":  # the batched backend, not the per-UE loop, ran
        assert metrics["split.ue.backward.calls"] == 0
        assert metrics["nn.stacked.conv2d_backward.self_s"] > 0


def test_untraced_smoke_run_reports_end_to_end_metrics(tmp_path):
    result = run.run_workload(SMOKE_WORKLOADS["fig3b-cached"](), 1, 0.0, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {key: m["unit"] for key, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not list(tmp_path.iterdir())  # the run's work directory is gone


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children():
    clock = _Clock()
    tracer = trace.Tracer(targets=(), clock=clock)

    def advance(seconds):
        clock.now += seconds

    leaf = tracer.wrap("leaf", lambda: advance(2.0))

    def body():
        advance(1.0)
        leaf()
        advance(3.0)
        leaf()

    outer = tracer.wrap("outer", body)
    with tracer.op():
        advance(0.5)
        outer()
        advance(0.25)

    assert tracer.self_times() == {trace.OP_SPAN: 0.75, "outer": 4.0, "leaf": 4.0}
    assert tracer.call_counts() == {trace.OP_SPAN: 1, "outer": 1, "leaf": 2}
    assert tracer.op_wall_s() == 8.75
    names = [span[0] for span in tracer.spans]
    parents = [names[span[3]] if span[3] >= 0 else None for span in tracer.spans]
    assert parents == [None, trace.OP_SPAN, "outer", "outer"]
    assert {span[4] for span in tracer.spans} == {0}


def test_uninstall_restores_the_original_callables():
    def snapshot():
        state = []
        for _, module, attribute in trace.TARGETS:
            owner, attr = trace.resolve(module, attribute)
            state.append((attr in vars(owner), inspect.getattr_static(owner, attr)))
        return state

    before = snapshot()
    tracer = trace.Tracer()
    with tracer.installed():
        during = snapshot()
        assert all(own for own, _ in during)
        assert all(new is not old for (_, new), (_, old) in zip(during, before))
    after = snapshot()
    assert [own for own, _ in after] == [own for own, _ in before]
    assert all(new is old for (_, new), (_, old) in zip(after, before))
    assert not tracer.spans


def test_compare_verdicts():
    def summary(values):
        runs = [
            {
                "correct": True,
                "attempted": 1,
                "failed": 0,
                "metrics": {"run_s": {"value": value, "unit": "s"}},
            }
            for value in values
        ]
        return run.summarize(runs)["metrics"]["run_s"]

    parent = summary([10.0, 10.1, 10.2, 9.9])
    assert compare.verdict(parent, summary([10.1, 10.0, 10.2, 10.1]), "lower", 0.25) == "unchanged"
    assert compare.verdict(parent, summary([13.0, 13.1, 13.2, 12.9]), "lower", 0.25) == "worse"
    assert compare.verdict(parent, summary([8.0, 8.1, 8.2, 7.9]), "lower", 0.25) == "better"
    assert compare.verdict(parent, summary([8.0, 8.1, 8.2, 7.9]), "higher", 0.25) == "unchanged"
    noisy = summary([6.0, 14.0, 8.0, 12.0])
    assert compare.verdict(parent, noisy, "lower", 0.25) == "unresolved"
