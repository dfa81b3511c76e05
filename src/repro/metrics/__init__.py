"""Metric recording: time series, rate windows, the move counter, and
the named gauge/histogram registry."""

from .registry import Gauge, Histogram, MetricsRegistry
from .timeseries import Counter, RateWindow, TimeSeries, format_table, percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "RateWindow", "TimeSeries", "format_table", "percentile"]
