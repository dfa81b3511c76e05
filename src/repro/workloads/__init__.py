"""Workload generators used by experiments and benchmarks."""

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
