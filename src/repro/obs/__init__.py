"""repro.obs — deterministic observability for the simulated stack.

One :class:`Observability` object bundles the three pieces every layer
shares:

* a :class:`~repro.obs.tracer.Tracer` writing sim-time spans/instants
  into the columns of a bounded :class:`~repro.obs.tracer.Journal`;
* a :class:`~repro.metrics.MetricsRegistry` of named gauges (the RPC
  latency histogram folds the journal);
* the exporters (:mod:`~repro.obs.trace_export`) and the
  :class:`~repro.obs.checker.TraceChecker` that replays the journal
  against cross-layer invariants.

Wiring pattern: :meth:`repro.harness.SimCluster.build` accepts an ``obs``
argument and threads the tracer through the engine, network, routers,
orchestrators and migration executor.  When no explicit ``obs`` is
passed, the *module default* applies — :data:`NO_OBS` unless a caller
activated a context with :func:`use`::

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
from ..sim.engine import ENGINE_SAMPLE
from . import trace_export
from .checker import REQUIRED_PHASES, TraceChecker, Violation
from .tracer import (KIND_END, NO_TRACER, Journal, NullTracer, TraceRecord,
                     Tracer)

__all__ = [
    "Observability", "NO_OBS", "ENGINE_SAMPLE", "get_default", "use",
    "Tracer", "NullTracer", "NO_TRACER", "Journal", "TraceRecord",
    "TraceChecker", "Violation", "REQUIRED_PHASES", "trace_export",
]


class Observability:
    """An enabled tracing + metrics context for one run."""

    enabled = True

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
        """Settled-RPC latency (ms) as a histogram snapshot, folded from
        the ``net`` span ends (exact while the journal dropped nothing)."""
        histogram = Histogram("net.rpc_latency_ms")
        _, kinds, tracks, _, _, _, args = self.journal.columns()
        for kind, track, values in zip(kinds, tracks, args):
            if kind == KIND_END and track == "net":
                histogram.observe(values["latency"] * 1e3)
        return histogram.snapshot()


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
