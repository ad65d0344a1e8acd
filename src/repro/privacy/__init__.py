"""Privacy-leakage metrics based on multidimensional scaling."""
from repro.privacy.leakage import (
    LeakageResult,
    PrivacyLeakageEvaluator,
    correlation_leakage,
    upsample_feature_maps,
)
from repro.privacy.mds import (
    classical_mds,
    double_center,
    pairwise_distances,
)

__all__ = [
    "LeakageResult",
    "PrivacyLeakageEvaluator",
    "classical_mds",
    "correlation_leakage",
    "double_center",
    "pairwise_distances",
    "upsample_feature_maps",
]
