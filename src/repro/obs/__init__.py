"""repro.obs — deterministic observability for the simulated stack.

One :class:`Observability` object bundles the three pieces every layer
shares:

* a :class:`~repro.obs.tracer.Tracer` writing sim-time spans/instants
  into a bounded ring-buffer :class:`~repro.obs.tracer.Journal`;
* a :class:`~repro.obs.metrics.MetricsRegistry` of named
  counters/gauges/histograms;
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
ids only; with the same seed, an enabled run journals a byte-identical
sequence (``Journal.digest()``), and produces the exact same simulation
results as a disabled run (instrumentation is pure observation — no RNG
draws, no scheduling).  Wall-clock measurements appear only under
``wall``-prefixed arg keys, which the digest skips.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from . import trace_export
from .checker import REQUIRED_PHASES, TraceChecker, Violation
from .coverage import coverage_keys, coverage_summary, violation_invariants
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import NO_TRACER, Journal, NullTracer, TraceRecord, Tracer

__all__ = [
    "Observability", "NO_OBS", "get_default", "set_default", "use",
    "Tracer", "NullTracer", "NO_TRACER", "Journal", "TraceRecord",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "TraceChecker", "Violation", "REQUIRED_PHASES", "trace_export",
    "coverage_keys", "coverage_summary", "violation_invariants",
]


class Observability:
    """An enabled tracing + metrics context for one run."""

    enabled = True

    def __init__(self, capacity: int = 1 << 20,
                 engine_sample: int = 64) -> None:
        #: Every ``engine_sample``-th engine dispatch gets an instant +
        #: queue-depth counter sample (1 = every event; engine tracks stay
        #: readable and the journal bounded at figure scale).
        self.engine_sample = max(1, engine_sample)
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


class _DisabledObservability(Observability):
    """The no-op context: shared singleton, nothing records."""

    enabled = False

    def __init__(self) -> None:
        self.engine_sample = 0
        self.metrics = MetricsRegistry()
        self.tracer = NO_TRACER


#: Module-level disabled singleton — the default everywhere.
NO_OBS = _DisabledObservability()
NO_TRACER.registry = NO_OBS.metrics

_default: Observability = NO_OBS


def get_default() -> Observability:
    """The ambient observability context (:data:`NO_OBS` unless set)."""
    return _default


def set_default(obs: Optional[Observability]) -> None:
    global _default
    _default = obs if obs is not None else NO_OBS


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
