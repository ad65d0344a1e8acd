"""Artifact schema and determinism tests for the fleet-scaling experiment."""
import json

import numpy as np
import pytest

from repro.experiments import run_fleet_scaling
from repro.experiments.fig_fleet_scaling import FLEET_ARTIFACT_SCHEMA_VERSION
from repro.split import ExperimentConfig
from repro.split.trainer import SplitTrainer

UE_COUNTS = (1, 2, 4)

#: Keys every cell of the artifact must carry.
REQUIRED_CELL_KEYS = {
    "num_ues",
    "scheme",
    "scheduler",
    "rounds",
    "rmse_curve_db",
    "elapsed_s",
    "round_duration_s",
    "medium_occupancy_per_round",
    "final_rmse_db",
    "best_rmse_db",
    "reached_target",
    "total_elapsed_s",
    "medium_busy_s",
    "medium_occupancy",
    "lost_steps",
}

#: Merged communication statistics expected per cell (``comm_*`` keys).
REQUIRED_COMM_KEYS = {
    "comm_steps",
    "comm_uplink_slots",
    "comm_downlink_slots",
    "comm_uplink_failures",
    "comm_downlink_failures",
    "comm_downlink_skipped",
    "comm_mean_slots_per_step",
    "comm_slots_std",
    "comm_mean_step_latency_s",
    "comm_latency_std_s",
    "comm_uplink_first_attempt_success_rate",
    "comm_downlink_first_attempt_success_rate",
    "comm_total_elapsed_s",
}


@pytest.fixture(scope="module")
def scaling_result(smoke_scale, smoke_split):
    return run_fleet_scaling(
        scale=smoke_scale,
        split=smoke_split,
        ue_counts=UE_COUNTS,
        max_rounds=2,
    )


def test_artifact_schema(scaling_result):
    artifact = scaling_result.artifact()
    assert artifact["schema_version"] == FLEET_ARTIFACT_SCHEMA_VERSION
    assert artifact["experiment"] == "fig_fleet_scaling"
    assert artifact["ue_counts"] == list(UE_COUNTS)
    assert set(artifact["modes"]) == {"rotation", "parallel_average"}
    for mode in artifact["modes"]:
        assert set(artifact["cells"][mode]) == {str(n) for n in UE_COUNTS}
        for num_ues in UE_COUNTS:
            cell = artifact["cells"][mode][str(num_ues)]
            assert REQUIRED_CELL_KEYS <= set(cell)
            assert REQUIRED_COMM_KEYS <= set(cell)
            assert cell["num_ues"] == num_ues
            assert len(cell["rmse_curve_db"]) == cell["rounds"]
            assert len(cell["elapsed_s"]) == cell["rounds"]
            assert 0.0 < cell["medium_occupancy"] < 1.0
            # Elapsed times are a learning-curve x axis: strictly increasing.
            assert np.all(np.diff(cell["elapsed_s"]) > 0)
    # The artifact must be JSON-serializable as-is.
    json.dumps(artifact)


def test_artifact_deterministic(smoke_scale, smoke_split):
    def artifact():
        return run_fleet_scaling(
            scale=smoke_scale,
            split=smoke_split,
            ue_counts=(1, 2),
            modes=("parallel_average",),
            max_rounds=2,
        ).artifact()

    assert json.dumps(artifact(), sort_keys=True) == json.dumps(
        artifact(), sort_keys=True
    )


def test_n1_rotation_cell_equals_single_ue_golden(
    smoke_scale, smoke_split, scaling_result
):
    """The N=1 rotation column is the single-UE trainer, draw for draw."""
    config = ExperimentConfig.for_scenario(
        smoke_scale.scenario,
        model=smoke_scale.base_model_config(),
        training=smoke_scale.training_config(),
    )
    golden = SplitTrainer(config).fit(
        smoke_split.train, smoke_split.validation, max_rounds=2
    )
    cell = scaling_result.artifact()["cells"]["rotation"]["1"]
    assert cell["rmse_curve_db"] == golden.validation_rmse_curve_db.tolist()
    assert cell["elapsed_s"] == golden.elapsed_times_s.tolist()


def test_fleet_sizes_cover_requested_counts(scaling_result):
    for mode in ("rotation", "parallel_average"):
        for num_ues in UE_COUNTS:
            history = scaling_result.history(mode, num_ues)
            assert history.num_ues == num_ues
            assert history.mode == mode


def test_run_fleet_scaling_validation(smoke_scale, smoke_split):
    with pytest.raises(ValueError):
        run_fleet_scaling(
            scale=smoke_scale, split=smoke_split, ue_counts=()
        )
    with pytest.raises(ValueError):
        run_fleet_scaling(
            scale=smoke_scale, split=smoke_split, modes=("gossip",)
        )


def test_cli_writes_artifact(tmp_path, sweep_cache_dir):
    from repro.experiments.run import main

    output = tmp_path / "fleet.json"
    exit_code = main(
        [
            "--experiment",
            "fleet",
            "--scale",
            "smoke",
            "--ues",
            "1",
            "2",
            "--modes",
            "parallel_average",
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
    assert set(artifact["metrics"]) >= {"parallel_average/n2/final_rmse_db"}
    figure = artifact["figure"]
    assert figure["schema_version"] == FLEET_ARTIFACT_SCHEMA_VERSION
    assert set(figure["cells"]) == {"parallel_average"}
    assert set(figure["cells"]["parallel_average"]) == {"1", "2"}
    assert all(
        cell["rounds"] == 1 for cell in figure["cells"]["parallel_average"].values()
    )
