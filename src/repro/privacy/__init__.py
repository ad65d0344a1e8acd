"""Privacy-leakage metrics based on multidimensional scaling."""
from repro.privacy.leakage import (
    LeakageResult,
    PrivacyLeakageEvaluator,
    correlation_leakage,
    leakage_for_pooling,
    upsample_feature_maps,
)
from repro.privacy.mds import (
    SmacofMDS,
    classical_mds,
    double_center,
    pairwise_distances,
    stress,
)

__all__ = [
    "LeakageResult",
    "PrivacyLeakageEvaluator",
    "SmacofMDS",
    "classical_mds",
    "correlation_leakage",
    "double_center",
    "leakage_for_pooling",
    "pairwise_distances",
    "stress",
    "upsample_feature_maps",
]
