"""Shared experiment plumbing: result reporting and scaling notes.

Every experiment module exposes ``run(...) -> <Figure>Result`` plus a
``format_report(result) -> str`` that prints the same series the paper's
figure shows.  Benchmarks assert on the result objects and print the
reports, building EXPERIMENTS.md's paper-vs-measured tables.
"""

from __future__ import annotations

from typing import Iterable

from ..metrics.timeseries import TimeSeries, format_table


#: Rows a report prints of a time series; longer ones are downsampled.
MAX_SERIES_ROWS = 40


def series_rows(series: TimeSeries, value_label: str = "value") -> str:
    """Render a time series as a table, downsampling long series evenly."""
    count = len(series)
    if count == 0:
        return "t(s): (empty)"
    indices: Iterable[int]
    if count <= MAX_SERIES_ROWS:
        indices = range(count)
    else:
        step = count / MAX_SERIES_ROWS
        indices = sorted({int(i * step) for i in range(MAX_SERIES_ROWS)}
                         | {count - 1})
    rows = [(f"{series.times[i]:.1f}", f"{series.values[i]:.4g}")
            for i in indices]
    return format_table(["t(s)", value_label], rows)

