"""The metrics registry: named gauges and histograms.

One :class:`MetricsRegistry` per :class:`~repro.obs.Observability`
context puts the plain counters components already keep
(``Network.rpcs_sent``/``rpcs_failed``, engine event counts, router
retries, orchestrator publish/move counts) behind a single named
namespace, without touching the hot paths that maintain them:

* components keep bumping their plain ``int`` attributes (unconditional
  integer adds — the fastest possible "metric");
* when observability is enabled, the wiring layer registers *callback
  gauges* that read those attributes lazily at snapshot time.

Histograms are fed only from code reached when observability is on
(instrumentation blocks guarded by ``tracer.enabled``), so they need no
disabled fast path of their own.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Gauge", "Histogram", "MetricsRegistry"]

#: Histogram bucket upper bounds (unit chosen by the caller — the RPC
#: latency histogram feeds milliseconds).
HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


class Gauge:
    """A named read-through value: ``fn()`` is evaluated on snapshot.

    Callback gauges are how the registry absorbs pre-existing raw
    counters without adding a registry call to any hot path.
    """

    __slots__ = ("name", "fn")
    kind = "gauge"

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def snapshot(self) -> float:
        return self.fn()


class Histogram:
    """Fixed-bound bucketed distribution (upper-bound buckets + overflow)."""

    __slots__ = ("name", "counts", "total", "sum")
    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(HISTOGRAM_BOUNDS, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"total": self.total, "sum": self.sum, "mean": self.mean,
                "buckets": {repr(bound): count for bound, count
                            in zip(HISTOGRAM_BOUNDS, self.counts)},
                "overflow": self.counts[-1]}


class MetricsRegistry:
    """Name → metric.  Re-registering a name returns/replaces the
    existing metric of the same kind (so failover re-wiring is safe) and
    raises on a kind clash."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _slot(self, name: str, kind: str):
        existing = self._metrics.get(name)
        if existing is not None and existing.kind != kind:
            raise ValueError(f"metric {name!r} already registered as "
                             f"{existing.kind}, not {kind}")
        return existing

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        existing = self._slot(name, "gauge")
        if existing is None:
            existing = Gauge(name, fn)
            self._metrics[name] = existing
        else:
            existing.fn = fn  # latest registration wins (e.g. failover)
        return existing

    def histogram(self, name: str) -> Histogram:
        existing = self._slot(name, "histogram")
        if existing is None:
            existing = Histogram(name)
            self._metrics[name] = existing
        return existing

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly {name: value} across every registered metric."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}
