"""Time-series and windowed-rate recording used by every experiment.

The figures in the paper are all time series (success rate, latency,
violations, shard moves, CPU utilization).  :class:`TimeSeries` records
raw (t, value) points; :class:`RateWindow` buckets counts into fixed-width
windows so we can plot e.g. "request success rate per 10 s bucket".

Storage is compact: :class:`TimeSeries` keeps its samples in two
``array('d')`` buffers (8 bytes per sample instead of a boxed float plus
a list slot — the fig17-scale latency series holds hundreds of thousands
of points), and :class:`RateWindow` accumulates the current bucket in
plain slots, touching its dicts only when the bucket rolls over.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def _float_array() -> array:
    return array("d")


@dataclass
class TimeSeries:
    """Append-only (time, value) samples with summary helpers.

    ``times`` and ``values`` are ``array('d')`` buffers; they index,
    slice, and iterate like lists of floats (compare with ``list(...)``
    when a test needs list equality).
    """

    name: str = ""
    times: array = field(default_factory=_float_array)
    values: array = field(default_factory=_float_array)

    def record(self, time: float, value: float) -> None:
        times = self.times
        if times and time < times[-1]:
            raise ValueError(
                f"{self.name or 'series'}: time went backwards "
                f"({time} < {times[-1]})"
            )
        times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def value_at(self, time: float) -> float:
        """Step-function lookup: the most recent value at or before ``time``."""
        index = bisect.bisect_right(self.times, time) - 1
        if index < 0:
            raise ValueError(f"no sample at or before t={time}")
        return self.values[index]

    def between(self, start: float, end: float) -> "TimeSeries":
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        sliced = TimeSeries(name=self.name)
        sliced.times = self.times[lo:hi]
        sliced.values = self.values[lo:hi]
        return sliced

    def min(self) -> float:
        return min(self.values)

    def max(self) -> float:
        return max(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"{self.name or 'series'} is empty")
        return sum(self.values) / len(self.values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (pct in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be within [0, 100], got {pct!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class RateWindow:
    """Buckets event counts into fixed-width time windows.

    Used for request success rates: record ``ok``/``failed`` events, then
    read back per-bucket success ratios.
    """

    __slots__ = ("width", "_ok", "_failed", "_bucket_index", "_bucket_ok",
                 "_bucket_failed")

    def __init__(self, width: float) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width!r}")
        self.width = width
        self._ok: Dict[int, int] = {}
        self._failed: Dict[int, int] = {}
        # Open-loop workloads record into one bucket for thousands of
        # consecutive events; accumulate the current bucket in plain
        # slots and touch the dicts only on rollover (or reads).
        self._bucket_index: Optional[int] = None
        self._bucket_ok = 0
        self._bucket_failed = 0

    def record(self, time: float, ok: bool, count: int = 1) -> None:
        bucket = int(time // self.width)
        if bucket != self._bucket_index:
            self._flush()
            self._bucket_index = bucket
        if ok:
            self._bucket_ok += count
        else:
            self._bucket_failed += count

    def _flush(self) -> None:
        """Fold the in-flight bucket into the dicts (idempotent)."""
        index = self._bucket_index
        if index is None:
            return
        if self._bucket_ok:
            self._ok[index] = self._ok.get(index, 0) + self._bucket_ok
            self._bucket_ok = 0
        if self._bucket_failed:
            self._failed[index] = (self._failed.get(index, 0)
                                   + self._bucket_failed)
            self._bucket_failed = 0
        self._bucket_index = None

    def buckets(self) -> List[int]:
        self._flush()
        keys = set(self._ok) | set(self._failed)
        return sorted(keys)

    def success_rate(self, bucket: int) -> float:
        self._flush()
        ok = self._ok.get(bucket, 0)
        failed = self._failed.get(bucket, 0)
        total = ok + failed
        if total == 0:
            raise ValueError(f"no events in bucket {bucket}")
        return ok / total

    def totals(self, bucket: int) -> Tuple[int, int]:
        self._flush()
        return self._ok.get(bucket, 0), self._failed.get(bucket, 0)

    def series(self) -> TimeSeries:
        """Success rate per bucket as a TimeSeries keyed by bucket midpoint."""
        out = TimeSeries(name="success_rate")
        for bucket in self.buckets():
            out.record((bucket + 0.5) * self.width, self.success_rate(bucket))
        return out

    def overall_success_rate(self) -> float:
        self._flush()
        ok = sum(self._ok.values())
        failed = sum(self._failed.values())
        if ok + failed == 0:
            raise ValueError("no events recorded")
        return ok / (ok + failed)


class Counter:
    """Monotonic counter with a time-series of increments, for move counts."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.total = 0
        self.events = TimeSeries(name=name)

    def add(self, time: float, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count!r}")
        self.total += count
        self.events.record(time, count)

    def windowed(self, width: float) -> TimeSeries:
        """Sum of increments per fixed-width window."""
        if width <= 0:
            raise ValueError(f"width must be positive, got {width!r}")
        sums: Dict[int, float] = {}
        for time, count in self.events:
            bucket = int(time // width)
            sums[bucket] = sums.get(bucket, 0.0) + count
        out = TimeSeries(name=f"{self.name}/window")
        for bucket in sorted(sums):
            out.record((bucket + 0.5) * width, sums[bucket])
        return out


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain-text table used by the benchmark harnesses' printed output."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
