"""repro.obs — deterministic observability for the simulated stack.

One :class:`Observability` object bundles the three pieces every layer
shares:

* a :class:`~repro.obs.tracer.Tracer` writing sim-time spans/instants
  into the columns of a bounded :class:`~repro.obs.tracer.Journal`;
* a :class:`~repro.metrics.MetricsRegistry` of named gauges (one reads
  the network's settled-RPC latency histogram);
* the exporters (:mod:`~repro.obs.trace_export`) and the
  :class:`~repro.obs.checker.TraceChecker` that replays the journal
  against cross-layer invariants.

Wiring pattern: :meth:`repro.harness.SimCluster.build` accepts an ``obs``
argument and threads the tracer through the network, routers,
orchestrators and migration executor.  The engine only lends the
tracer its clock: it journals nothing, so there is no ``engine`` track
(a run's event count is ``Engine.processed_events``).  When no explicit
``obs`` is passed, the *module default* applies — :data:`NO_OBS` unless
a caller activated a context with :func:`use`::

    import repro.obs as obs

    with obs.use(obs.Observability()) as o:
        result = fig17_availability.run(...)   # builds its own cluster
    trace_export.write_chrome_trace(o.journal, "trace.json")

which is how ``--trace`` works for any figure without changing figure
signatures.

Determinism contract: records carry simulated time and counter-allocated
ids only; with the same seed, an enabled run journals identical records
(``Journal.digest()`` hashes them column by column, each value with its
type), and produces the exact same simulation results as a disabled run
(instrumentation is pure observation — no RNG draws, no scheduling).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..metrics.registry import Histogram, MetricsRegistry
from . import trace_export
from .checker import REQUIRED_PHASES, TraceChecker, Violation
from .tracer import NO_TRACER, Journal, NullTracer, TraceRecord, Tracer

__all__ = [
    "Observability", "NO_OBS", "get_default", "use",
    "Tracer", "NullTracer", "NO_TRACER", "Journal", "TraceRecord",
    "TraceChecker", "Violation", "REQUIRED_PHASES", "trace_export",
]


class Observability:
    """An enabled tracing + metrics context for one run."""

    enabled = True
    #: The histogram ``rpc_latency_ms`` reads (set by the wiring layer).
    rpc_latency: Optional[Histogram] = None

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(Journal(capacity))
        self.tracer.registry = self.metrics

    @property
    def journal(self) -> Journal:
        return self.tracer.journal

    def merged_journal(self) -> Journal:
        # Alias kept because bench/workloads.py, which a change may not
        # edit, calls it; everything else reads ``journal``.
        return self.journal

    def rpc_latency_ms(self) -> Dict[str, Any]:
        """Settled-RPC latency (ms) as a histogram snapshot: the
        ``net.rpc_latency_ms`` histogram of the network last built under
        this context (:meth:`repro.harness.SimCluster.build` hands it
        over; the network owns it)."""
        return self.rpc_latency.snapshot()


class _DisabledObservability(Observability):
    """The no-op context: shared singleton, nothing records."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = NO_TRACER


#: Module-level disabled singleton — the default everywhere.
NO_OBS = _DisabledObservability()
NO_TRACER.registry = NO_OBS.metrics

_default: Observability = NO_OBS


def get_default() -> Observability:
    """The ambient observability context (:data:`NO_OBS` unless set)."""
    return _default


@contextmanager
def use(obs: Observability) -> Iterator[Observability]:
    """Make ``obs`` the default context for the duration of the block."""
    global _default
    previous = _default
    _default = obs
    try:
        yield obs
    finally:
        _default = previous
