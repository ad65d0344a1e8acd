"""Every public function and method under ``src/repro`` has a caller.

The probe runs the program's entry points at smoke scale under
``sys.setprofile`` and records every function they call:

* the ``repro.experiments.run`` experiments, cold and then resumed from the
  dataset, checkpoint and trained-model caches, and a fleet-scaling run with
  its experiment options;
* one serial ``table1`` sweep cell;
* the five ablations, with minimal arguments;
* ``repro.analysis`` over ``src/repro``.

A public function or method (a name without a leading ``_``, on a module or
on a module-level class) that none of them reaches must be on
:data:`ALLOWLIST`, with a one-line reason naming its other caller.  Code that
only its own unit tests call is dead weight: delete it with its tests.

The probe runs in fresh interpreters, so the calls modules make while they
are imported (registries, decorators) are recorded too.  The analysis pass
and the rest run side by side, because the profiler slows the call-heavy
analysis most.  The experiments train their jobs, and the sweep runs its
cell, in this interpreter (one CPU, so ``repro.utils.parallel.fork_each``
runs its tasks inline): a forked worker's calls would never reach the
profiler here.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

MEMBER = "test oracle: per-member UE step the stacked bank is checked against"
SCENE = "test oracle: one-frame view tests/scene/per_frame_oracle.py calls"
HARNESS = "harness target: benchmarks/harness/trace.py resolves it by name"
SUBCLASS = "user-subclass default: base-class hook the concrete classes override"
EXAMPLE = "example/benchmark import: examples/ or benchmarks/ call it"
BRANCH = "entry-point branch the smoke probe does not take"

#: ``module:qualname`` -> why it stays although no entry point reaches it.
ALLOWLIST = {
    # -- repro.nn and the split halves -------------------------------------
    "repro.nn.layers.conv:col2im": HARNESS,
    "repro.nn.layers.base:Layer.forward": SUBCLASS,
    "repro.nn.layers.base:Layer.backward": SUBCLASS,
    "repro.nn.layers.base:Layer.zero_grad": MEMBER,
    "repro.nn.layers.sequential:Sequential.zero_grad": MEMBER,
    "repro.nn.layers.base:Layer.named_parameters": "test oracle: "
    "tests/gradcheck.py perturbs parameters through it",
    "repro.nn.layers.sequential:Sequential.named_parameters": "test oracle: "
    "tests/gradcheck.py perturbs parameters through it",
    "repro.nn.losses:Loss.forward": SUBCLASS,
    "repro.nn.losses:Loss.backward": SUBCLASS,
    "repro.nn.serialization:flatten_state_tree": "test oracle: the flat view "
    "the checkpoint and resume tests compare state trees through",
    "repro.fleet.config:FleetConfig.resolved_backend": "harness workload: "
    "benchmarks/harness/workloads.py checks the fleet-n260 backend through it",
    "repro.split.ue:UEClient.backward": HARNESS + "; the plan's backward at "
    "one member, which tests/split/test_ue_network.py checks",
    "repro.split.codecs:PayloadCodec.encode_decode": SUBCLASS,
    "repro.split.codecs:PayloadCodec.preview": SUBCLASS,
    "repro.split.codecs:PayloadCodec.sized_payload_bits": SUBCLASS,
    "repro.split.codecs:IdentityCodec.encode_decode": HARNESS + "; the "
    "per-member reference encode_decode_stacked vectorizes",
    "repro.split.codecs:UniformQuantizerCodec.encode_decode": HARNESS + "; the "
    "per-member reference encode_decode_stacked vectorizes",
    "repro.split.predictors:BasePredictor.fit": EXAMPLE,
    "repro.split.predictors:BasePredictor.predict": EXAMPLE,
    "repro.split.predictors:BasePredictor.evaluate": EXAMPLE,
    "repro.split.predictors:BasePredictor.scheme": EXAMPLE,
    "repro.split.trainer:SplitTrainer.protocol": EXAMPLE,
    "repro.privacy.leakage:PrivacyLeakageEvaluator.evaluate": HARNESS,
    # -- analysis, channel, dataset ----------------------------------------
    "repro.analysis.findings:AnalysisReport.to_json": BRANCH + " (--format json)",
    "repro.analysis.findings:Finding.render": BRANCH + " (a scan with findings)",
    "repro.analysis.registry:known_codes": BRANCH + " (--select)",
    "repro.channel.arq:ArqSession.exchange": HARNESS + "; the ARQ goldens "
    "replay it",
    "repro.channel.link:BatchTransmissionResult.empty": BRANCH
    + " (a transmit of zero payloads)",
    "repro.channel.link:WirelessLink.success_probability": EXAMPLE + " (the "
    "scalar transmit and expected_slots call it)",
    "repro.channel.link:WirelessLink.expected_slots": EXAMPLE,
    "repro.channel.link:WirelessLink.transmit": EXAMPLE + " (the scalar path "
    "of examples/custom_scene_simulation.py and the channel benchmark); the "
    "ARQ goldens pin it",
    "repro.dataset.cache:default_cache_dir": BRANCH + " (no cache directory)",
    "repro.dataset.generator:DepthPowerDataset.blockage_fraction": EXAMPLE,
    "repro.dataset.generator:generate_small_dataset": EXAMPLE,
    # -- experiments, fleet, scenarios -------------------------------------
    "repro.experiments.common:ExperimentScale.fast": BRANCH + " (--scale fast)",
    "repro.experiments.common:ExperimentScale.paper": BRANCH + " (--scale paper)",
    "repro.experiments.fig2_feature_maps:Fig2Result.format_table": EXAMPLE,
    "repro.experiments.fig2_feature_maps:Fig2Result.summary_rows": EXAMPLE,
    "repro.experiments.fig3a_learning_curves:Fig3aResult.best_scheme": EXAMPLE,
    "repro.experiments.fig3a_learning_curves:Fig3aResult.format_table": EXAMPLE,
    "repro.experiments.fig3a_learning_curves:Fig3aResult.summary_rows": EXAMPLE,
    "repro.experiments.fig3b_power_prediction:Fig3bResult.best_overall": EXAMPLE,
    "repro.experiments.fig3b_power_prediction:Fig3bResult.format_table": EXAMPLE,
    "repro.experiments.fig3b_power_prediction:Fig3bResult.summary_rows": EXAMPLE,
    "repro.experiments.fig_compression_pareto:CompressionParetoResult.history": (
        EXAMPLE
    ),
    "repro.experiments.fig_compression_pareto:CompressionParetoResult"
    ".format_table": EXAMPLE,
    "repro.experiments.fig_fleet_scaling:FleetScalingResult.history": EXAMPLE,
    "repro.experiments.fig_fleet_scaling:FleetScalingResult.format_table": EXAMPLE,
    "repro.experiments.model_cache:default_model_cache_dir": BRANCH
    + " (no cache directory)",
    "repro.experiments.pipeline:ExperimentPipeline.train": HARNESS + "; the "
    "single-job form of train_all, which every runner calls",
    "repro.experiments.pipeline:ExperimentSpec.run_cell": EXAMPLE + " (the "
    "sweep-cold workload's oracle; cells run through sweep.run_cell)",
    "repro.experiments.sweep:canonical_artifact": "CI step: the sweep "
    "kill-and-resume check in .github/workflows/ci.yml compares runs through it",
    "repro.experiments.table1_privacy_success:Table1Result.format_table": EXAMPLE,
    "repro.experiments.table1_privacy_success:Table1Result.summary_rows": EXAMPLE,
    "repro.experiments.table1_privacy_success:Table1Result.poolings": EXAMPLE,
    "repro.experiments.table1_privacy_success:Table1Result.leakages": EXAMPLE,
    "repro.experiments.table1_privacy_success:Table1Result.success_probabilities": (
        EXAMPLE
    ),
    "repro.experiments.table1_privacy_success:run_paper_success_probabilities": (
        EXAMPLE
    ),
    "repro.fleet.trainer:FleetHistory.elapsed_times_s": EXAMPLE,
    "repro.fleet.trainer:FleetHistory.validation_rmse_curve_db": EXAMPLE,
    "repro.scenarios.base:Scenario.describe": BRANCH + " (sweep --list-scenarios)",
    "repro.scenarios.registry:scenario_names": BRANCH + " (sweep --list-scenarios)",
    # -- mmwave, scene, utils ----------------------------------------------
    "repro.mmwave.blockage:BlockageModel.attenuation_db": SUBCLASS,
    "repro.mmwave.blockage:BlockageModel.frame_attenuations_db": SUBCLASS,
    "repro.mmwave.blockage:IndependentBodiesBlockageModel.body_attenuations_db": (
        SUBCLASS
    ),
    "repro.mmwave.propagation:log_distance_path_loss_db": "golden: "
    "tests/regression/test_golden_values.py pins its closed form",
    "repro.scene.actors:Pedestrian.state_at": SUBCLASS,
    "repro.scene.actors:Pedestrian.states_at": SUBCLASS,
    "repro.scene.actors:CrossingPedestrian.state_at": SCENE,
    "repro.scene.actors:LoiteringPedestrian.state_at": SCENE,
    "repro.scene.actors:LoiteringPedestrian.states_at": BRANCH
    + " (a scenario with loitering pedestrians)",
    "repro.scene.actors:periodic_crossing_traffic": EXAMPLE,
    "repro.scene.camera:DepthCamera.render": HARNESS,
    "repro.scene.environment:BlockerArrays.frame_blockers": EXAMPLE,
    "repro.scene.environment:BlockerArrays.from_lists": EXAMPLE,
    "repro.scene.environment:CorridorScene.frames": EXAMPLE,
    "repro.scene.environment:SceneFrame.line_of_sight_blocked": EXAMPLE,
    "repro.scene.geometry:AxisAlignedBox.from_center": SCENE,
    "repro.scene.geometry:AxisAlignedBox.center": SCENE,
    "repro.scene.geometry:AxisAlignedBox.size": SCENE,
    "repro.scene.geometry:AxisAlignedBox.contains": SCENE,
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def public_definitions():
    """``module:qualname`` of every public module-level function and every
    public method of a module-level class under ``src/repro``."""
    names = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            if isinstance(node, functions) and not node.name.startswith("_"):
                names.add(f"{module}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(
                    f"{module}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, functions) and not item.name.startswith("_")
                )
    return names


def probe(part: str, workdir: Path, output: Path) -> None:
    """Run one part's entry points under a profiler; write what they reached."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        PARTS[part](workdir)
    finally:
        sys.setprofile(None)
    package = str(SRC / "repro")
    reached = sorted(
        {
            f"{_module_name(Path(code.co_filename))}:{code.co_qualname}"
            for code in codes
            if code.co_filename.startswith(package)
        }
    )
    output.write_text(json.dumps(reached))


def _run_experiments(workdir: Path) -> None:
    from repro.experiments import ablations
    from repro.experiments.common import ExperimentScale
    from repro.experiments.run import main as run_main
    from repro.experiments.sweep import main as sweep_main
    from repro.utils import parallel

    parallel._available_cpus = lambda: 1

    caches = [
        "--cache-dir", str(workdir / "datasets"),
        "--checkpoint-dir", str(workdir / "checkpoints"),
        "--model-cache-dir", str(workdir / "models"),
    ]
    for experiment in ("fig2", "fig3a", "fig3b", "table1", "pareto"):
        argv = ["--experiment", experiment, "--scale", "smoke", *caches]
        argv += ["--output", str(workdir / f"{experiment}.json")]
        assert run_main(argv) == 0
        assert run_main([*argv, "--resume"]) == 0
    assert sweep_main([
        "--scenarios", "paper_baseline", "--seed-list", "0",
        "--experiment", "table1", "--scale", "smoke", "--serial",
        "--cache-dir", str(workdir / "datasets"),
        "--output", str(workdir / "sweep.json"),
    ]) == 0
    assert run_main([
        "--experiment", "fleet", "--scale", "smoke", "--ues", "1", "2",
        "--max-rounds", "1", "--cache-dir", str(workdir / "datasets"),
        "--output", str(workdir / "fleet.json"),
    ]) == 0
    smoke = ExperimentScale.smoke()
    ablations.pooling_sweep(image_size=12, batch_size=16)
    ablations.bandwidth_sweep(pooling=4, bandwidths_hz=[30e6])
    ablations.sequence_length_sweep(smoke, sequence_lengths=[2])
    ablations.blockage_model_comparison(num_samples=120, image_size=8)
    ablations.rnn_type_sweep(smoke, rnn_types=["lstm", "gru", "simple"])


def _run_analysis(workdir: Path) -> None:
    from repro.analysis.cli import main as analysis_main

    assert analysis_main([str(SRC / "repro")]) == 0


#: The probe's two halves, run side by side in their own interpreters.
PARTS = {"experiments": _run_experiments, "analysis": _run_analysis}


def test_every_public_function_is_reached_or_allowlisted(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    for part in PARTS:
        workdir = tmp_path / part
        workdir.mkdir()
        output = workdir / "reached.json"
        command = [sys.executable, __file__, part, str(workdir), str(output)]
        runs.append((output, subprocess.Popen(
            command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )))
    reached = set()
    for output, process in runs:
        _, stderr = process.communicate(timeout=600)
        assert process.returncode == 0, stderr[-4000:]
        reached.update(json.loads(output.read_text()))
    public = public_definitions()

    unreached = sorted(public - reached - set(ALLOWLIST))
    assert unreached == [], (
        "public functions no entry point reaches: delete them (with their "
        "tests) or allowlist them with the caller that keeps them"
    )
    stale = sorted(set(ALLOWLIST) - (public - reached))
    assert stale == [], "allowlist entries that are reached or no longer exist"


if __name__ == "__main__":
    probe(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]))
