"""Metric recording: time series, rate windows, the move counter, the
stage profiler, and the named gauge/histogram registry."""

from .profiler import Profiler
from .registry import Gauge, Histogram, MetricsRegistry
from .timeseries import Counter, RateWindow, TimeSeries, format_table, percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Profiler",
           "RateWindow", "TimeSeries", "format_table", "percentile"]
