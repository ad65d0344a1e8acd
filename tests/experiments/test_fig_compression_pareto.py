"""Artifact schema and determinism tests for the compression-Pareto experiment."""
import json

import numpy as np
import pytest

from repro.experiments.fig_compression_pareto import (
    COMPRESSION_ARTIFACT_SCHEMA_VERSION,
    result_metrics,
    run_compression_pareto,
)
from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer

CODECS = ("identity", "uint8", "topk")

#: Keys every cell of the artifact must carry.
REQUIRED_CELL_KEYS = {
    "codec",
    "scheme",
    "epochs",
    "rmse_curve_db",
    "elapsed_s",
    "final_rmse_db",
    "best_rmse_db",
    "reached_target",
    "total_elapsed_s",
    "lost_steps",
    "uplink_payload_bits",
}

#: Communication statistics expected per cell (``comm_*`` keys).
REQUIRED_COMM_KEYS = {
    "comm_steps",
    "comm_uplink_slots",
    "comm_downlink_slots",
    "comm_mean_slots_per_step",
    "comm_mean_step_latency_s",
}


@pytest.fixture(scope="module")
def pareto_result(smoke_scale, smoke_split):
    return run_compression_pareto(
        scale=smoke_scale, split=smoke_split, codecs=CODECS, max_rounds=2
    )


def test_artifact_schema(pareto_result):
    artifact = pareto_result.artifact()
    assert artifact["schema_version"] == COMPRESSION_ARTIFACT_SCHEMA_VERSION
    assert artifact["experiment"] == "fig_compression_pareto"
    assert artifact["codecs"] == list(CODECS)
    assert set(artifact["cells"]) == set(CODECS)
    for codec in CODECS:
        cell = artifact["cells"][codec]
        assert REQUIRED_CELL_KEYS <= set(cell)
        assert REQUIRED_COMM_KEYS <= set(cell)
        assert cell["codec"] == codec
        assert len(cell["rmse_curve_db"]) == cell["epochs"]
        assert np.all(np.diff(cell["elapsed_s"]) > 0)
    # Compression responds in the payload accounting, not just the tensors.
    bits = {codec: artifact["cells"][codec]["uplink_payload_bits"] for codec in CODECS}
    assert bits["uint8"] < bits["identity"]
    assert bits["topk"] < bits["uint8"]
    # The artifact must be JSON-serializable as-is.
    json.dumps(artifact)


def test_identity_cell_equals_single_ue_golden(
    smoke_scale, smoke_split, pareto_result
):
    """The identity cell is the pre-codec single-UE trainer, draw for draw."""
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    golden = SplitTrainer(config).fit(
        smoke_split.train, smoke_split.validation, max_rounds=2
    )
    cell = pareto_result.artifact()["cells"]["identity"]
    assert cell["rmse_curve_db"] == golden.validation_rmse_curve_db.tolist()
    assert cell["elapsed_s"] == golden.elapsed_times_s.tolist()


def test_artifact_deterministic(smoke_scale, smoke_split):
    def artifact():
        return run_compression_pareto(
            scale=smoke_scale,
            split=smoke_split,
            codecs=("identity", "topk"),
            max_rounds=2,
        ).artifact()

    assert json.dumps(artifact(), sort_keys=True) == json.dumps(
        artifact(), sort_keys=True
    )


def test_result_metrics_flatten(pareto_result):
    metrics = result_metrics(pareto_result)
    for codec in CODECS:
        assert f"{codec}/final_rmse_db" in metrics
        assert f"{codec}/uplink_payload_bits" in metrics
        assert f"{codec}/comm_mean_slots_per_step" in metrics
    assert all(isinstance(value, float) for value in metrics.values())


def test_topk_fraction_override(smoke_scale, smoke_split):
    result = run_compression_pareto(
        scale=smoke_scale,
        split=smoke_split,
        codecs=("topk",),
        topk_fraction=0.5,
        max_rounds=1,
    )
    default = run_compression_pareto(
        scale=smoke_scale,
        split=smoke_split,
        codecs=("topk",),
        max_rounds=1,
    )
    assert (
        result.uplink_payload_bits["topk"] > default.uplink_payload_bits["topk"]
    )


def test_run_compression_pareto_validation(smoke_scale, smoke_split):
    with pytest.raises(ValueError):
        run_compression_pareto(scale=smoke_scale, split=smoke_split, codecs=())
    with pytest.raises(ValueError, match="unknown codecs"):
        run_compression_pareto(
            scale=smoke_scale, split=smoke_split, codecs=("gzip",)
        )


def test_cli_writes_artifact(tmp_path, sweep_cache_dir):
    from repro.experiments.run import main

    output = tmp_path / "pareto.json"
    exit_code = main(
        [
            "--experiment",
            "pareto",
            "--scale",
            "smoke",
            "--codecs",
            "identity",
            "uint8",
            "--max-rounds",
            "1",
            "--cache-dir",
            str(sweep_cache_dir),
            "--output",
            str(output),
        ]
    )
    assert exit_code == 0
    artifact = json.loads(output.read_text())
    assert set(artifact["metrics"]) >= {"identity/final_rmse_db", "uint8/elapsed_s"}
    figure = artifact["figure"]
    assert figure["schema_version"] == COMPRESSION_ARTIFACT_SCHEMA_VERSION
    assert set(figure["cells"]) == {"identity", "uint8"}
    assert all(cell["epochs"] == 1 for cell in figure["cells"].values())


def test_registered_in_experiment_specs():
    from repro.experiments.pipeline import experiment_specs
    from repro.experiments.sweep import ARTIFACT_SCHEMA_VERSION

    assert "pareto" in experiment_specs()
    # The sweep artifact layout gained the pareto metrics in v4.
    assert ARTIFACT_SCHEMA_VERSION >= 4
