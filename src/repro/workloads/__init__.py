"""Workload and fleet generators used by experiments and benchmarks."""

from .fleet import (
    Breakdown,
    SyntheticApp,
    adoption_curve,
    deployment_breakdown,
    drain_breakdown,
    generate_fleet,
    lb_policy_breakdown,
    replication_breakdown,
    scale_scatter,
    scheme_breakdown,
    storage_breakdown,
)
from .load import (
    DAY,
    ConstantCurve,
    DiurnalCurve,
    ZipfKeySampler,
    mean_rate,
)
from .snapshots import (
    PAPER_SCALES,
    ZIPPYDB_METRICS,
    SnapshotScale,
    attach_zippydb_goals,
    scaled,
    zippydb_snapshot,
)

__all__ = [
    "Breakdown",
    "SyntheticApp",
    "adoption_curve",
    "deployment_breakdown",
    "drain_breakdown",
    "generate_fleet",
    "lb_policy_breakdown",
    "replication_breakdown",
    "scale_scatter",
    "scheme_breakdown",
    "storage_breakdown",
    "DAY",
    "ConstantCurve",
    "DiurnalCurve",
    "ZipfKeySampler",
    "mean_rate",
    "PAPER_SCALES",
    "ZIPPYDB_METRICS",
    "SnapshotScale",
    "attach_zippydb_goals",
    "scaled",
    "zippydb_snapshot",
]
