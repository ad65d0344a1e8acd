"""Experiment runners: one per figure or table of the paper, plus the
compression and fleet-scaling studies."""
from repro.experiments.common import (
    ExperimentScale,
    generate_dataset,
    prepare_split,
    scale_from_name,
    scheme_model_configs,
)
from repro.experiments.fig2_feature_maps import (
    Fig2Result,
    PoolingVisualization,
    run_fig2,
    select_representative_frames,
    shannon_entropy_bits,
)
from repro.experiments.fig3a_learning_curves import Fig3aResult, run_fig3a
from repro.experiments.fig_compression_pareto import (
    COMPRESSION_ARTIFACT_SCHEMA_VERSION,
    CompressionParetoResult,
    run_compression_pareto,
)
from repro.experiments.fig_fleet_scaling import (
    FLEET_ARTIFACT_SCHEMA_VERSION,
    FleetScalingResult,
    run_fleet_scaling,
)
from repro.experiments.model_cache import (
    default_model_cache_dir,
    trained_model_fingerprint,
    trained_model_path,
)
from repro.experiments.pipeline import (
    ExperimentPipeline,
    ExperimentSpec,
    PipelineOptions,
    TrainedModel,
    TrainingJob,
    experiment_specs,
    write_artifact,
)
from repro.experiments.fig3b_power_prediction import (
    Fig3bResult,
    SchemePrediction,
    run_fig3b,
    select_plot_window,
    transition_mask_from_truth,
)
from repro.experiments.table1_privacy_success import (
    PAPER_TABLE1,
    Table1Result,
    Table1Row,
    run_paper_success_probabilities,
    run_table1,
    success_probability_for_pooling,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "COMPRESSION_ARTIFACT_SCHEMA_VERSION",
    "CompressionParetoResult",
    "FLEET_ARTIFACT_SCHEMA_VERSION",
    "FleetScalingResult",
    "run_compression_pareto",
    "run_fleet_scaling",
    "ExperimentPipeline",
    "ExperimentScale",
    "ExperimentSpec",
    "Fig2Result",
    "Fig3aResult",
    "Fig3bResult",
    "PAPER_TABLE1",
    "PipelineOptions",
    "PoolingVisualization",
    "SchemePrediction",
    "SweepConfig",
    "Table1Result",
    "Table1Row",
    "TrainedModel",
    "TrainingJob",
    "canonical_artifact",
    "default_model_cache_dir",
    "experiment_specs",
    "format_summary",
    "generate_dataset",
    "prepare_split",
    "run_sweep",
    "run_fig2",
    "run_fig3a",
    "run_fig3b",
    "run_paper_success_probabilities",
    "run_table1",
    "scale_from_name",
    "scheme_model_configs",
    "select_plot_window",
    "select_representative_frames",
    "shannon_entropy_bits",
    "success_probability_for_pooling",
    "trained_model_fingerprint",
    "trained_model_path",
    "transition_mask_from_truth",
    "write_artifact",
]

# Sweep-orchestrator names are exported lazily (PEP 562) so that running its
# CLI as ``python -m repro.experiments.sweep`` does not trip the runpy "found
# in sys.modules" warning by importing the module during package init.
_LAZY_EXPORTS = {
    "ARTIFACT_SCHEMA_VERSION": "sweep",
    "SweepConfig": "sweep",
    "canonical_artifact": "sweep",
    "format_summary": "sweep",
    "run_sweep": "sweep",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(
            f"repro.experiments.{_LAZY_EXPORTS[name]}"
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
