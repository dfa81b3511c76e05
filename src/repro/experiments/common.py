"""Shared experiment plumbing: result reporting and scaling notes.

Every experiment module exposes ``run(...) -> <Figure>Result`` plus a
``format_report(result) -> str`` that prints the same series the paper's
figure shows.  Benchmarks assert on the result objects and print the
reports, building EXPERIMENTS.md's paper-vs-measured tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..metrics.timeseries import TimeSeries, format_table


def series_rows(series: TimeSeries, time_label: str = "t(s)",
                value_label: str = "value",
                max_rows: int = 40) -> str:
    """Render a time series as a table, downsampling long series evenly."""
    count = len(series)
    if count == 0:
        return f"{time_label}: (empty)"
    indices: Iterable[int]
    if count <= max_rows:
        indices = range(count)
    else:
        step = count / max_rows
        indices = sorted({int(i * step) for i in range(max_rows)} | {count - 1})
    rows = [(f"{series.times[i]:.1f}", f"{series.values[i]:.4g}")
            for i in indices]
    return format_table([time_label, value_label], rows)


def percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def compare_breakdown(measured: Dict[str, float],
                      published: Dict[str, float]) -> List[Tuple[str, str, str]]:
    """(category, paper, measured) rows for demographics tables."""
    rows = []
    for key in sorted(set(measured) | set(published)):
        rows.append((key,
                     percent(published.get(key, 0.0)),
                     percent(measured.get(key, 0.0))))
    return rows


def max_abs_error(measured: Dict[str, float],
                  published: Dict[str, float]) -> float:
    keys = set(measured) | set(published)
    return max(abs(measured.get(k, 0.0) - published.get(k, 0.0))
               for k in keys)
