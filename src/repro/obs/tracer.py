"""Deterministic sim-time tracing: spans, instants, and the ring journal.

The tracer is the write side of the observability subsystem.  It records
slotted :class:`TraceRecord` objects into a bounded ring-buffer
:class:`Journal`; records carry *simulated* time only and every id (span
ids, sequence numbers) comes from per-tracer counters — never from wall
clocks or ``id()`` — so two seeded runs produce byte-identical journals
(see DESIGN.md, "Observability").

Wall-clock measurements (e.g. solver stage timings) may ride along in
record ``args``, but only under keys prefixed ``wall``: the journal's
:meth:`Journal.digest` skips those keys, keeping the digest a pure
function of simulation behaviour.

Disabled tracing is the common case and must cost ~nothing: hot paths
hold a tracer reference and branch on the cached class attribute
``tracer.enabled`` (``False`` on the module-level :data:`NO_TRACER`
singleton), paying one attribute load + jump per potential record.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Journal", "Tracer", "NullTracer", "NO_TRACER"]

#: Record kinds: span begin / span end / instant / counter sample.
KIND_BEGIN = "B"
KIND_END = "E"
KIND_INSTANT = "I"
KIND_COUNTER = "C"


class TraceRecord:
    """One journal entry (slotted; ~100 bytes + args)."""

    __slots__ = ("seq", "kind", "track", "name", "time", "span", "args")

    def __init__(self, seq: int, kind: str, track: str, name: str,
                 time: float, span: int,
                 args: Optional[Dict[str, Any]]) -> None:
        self.seq = seq
        self.kind = kind
        self.track = track
        self.name = name
        self.time = time
        self.span = span      # 0 for records not tied to a span
        self.args = args      # None or a plain dict of JSON-able values

    def canonical(self) -> str:
        """Deterministic one-line form, excluding ``wall*`` args.

        Used by :meth:`Journal.digest`: two seeded runs must produce the
        same lines even though their wall-clock measurements differ.
        """
        if self.args:
            args = ",".join(f"{k}={self.args[k]!r}"
                            for k in sorted(self.args)
                            if not k.startswith("wall"))
        else:
            args = ""
        return (f"{self.seq}|{self.kind}|{self.track}|{self.name}|"
                f"{self.time!r}|{self.span}|{args}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (the JSONL dump schema)."""
        record: Dict[str, Any] = {"seq": self.seq, "kind": self.kind,
                                  "track": self.track, "name": self.name,
                                  "t": self.time}
        if self.span:
            record["span"] = self.span
        if self.args:
            record["args"] = self.args
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceRecord {self.canonical()}>"


class Journal:
    """Bounded ring buffer of trace records.

    Appends are O(1); once ``capacity`` is reached the oldest records are
    evicted (``dropped`` counts how many).  Bounded by design: a traced
    figure run keeps the most recent window instead of growing without
    limit, and the :class:`~repro.obs.checker.TraceChecker` tolerates a
    truncated prefix (unmatched span ends are ignored).
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self.appended = 0

    def append(self, record: TraceRecord) -> None:
        self._records.append(record)
        self.appended += 1

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return self.appended - len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def tracks(self) -> List[str]:
        """Sorted distinct track names present in the journal."""
        return sorted({record.track for record in self._records})

    def digest(self) -> str:
        """SHA-256 over the canonical record lines (``wall*`` args
        excluded) — the seed-parity fingerprint for enabled tracing."""
        hasher = hashlib.sha256()
        for record in self._records:
            hasher.update(record.canonical().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def behaviour_digest(self) -> str:
        """SHA-256 over what the simulated *system* did, not over how
        the simulator got there: the ``engine`` track (dispatch samples
        taken every N-th executed event) and each record's ``seq`` (its
        position among them) are left out.  A substrate change that
        executes fewer or different events while every modelled component
        behaves the same moves :meth:`digest` and leaves this one alone.
        """
        hasher = hashlib.sha256()
        for record in self._records:
            if record.track != "engine":
                # The canonical line minus its leading "seq|" field.
                line = record.canonical().partition("|")[2]
                hasher.update(line.encode())
                hasher.update(b"\n")
        return hasher.hexdigest()


class Tracer:
    """Records spans / instants / counters into a :class:`Journal`.

    Span ids and sequence numbers are small monotonic ints allocated per
    tracer; the clock is bound to a simulation engine with
    :meth:`bind_clock` (records made before binding stamp ``t=0.0``).
    ``registry`` points at the owning
    :class:`~repro.metrics.MetricsRegistry` so instrumented components
    holding only the tracer can also register gauges.
    """

    enabled = True  # class attribute: one load in hot-path guards

    def __init__(self, journal: Optional[Journal] = None) -> None:
        self.journal = journal if journal is not None else Journal()
        self.registry = None  # set by Observability
        self._engine = None
        self._next_span = 1
        self._next_seq = 0

    def bind_clock(self, engine) -> None:
        """Stamp subsequent records with ``engine.now``."""
        self._engine = engine

    # -- recording -----------------------------------------------------------

    def _append(self, kind: str, track: str, name: str,
                time: Optional[float], span: int,
                args: Optional[Dict[str, Any]]) -> None:
        if time is None:
            engine = self._engine
            time = engine.now if engine is not None else 0.0
        seq = self._next_seq
        self._next_seq = seq + 1
        self.journal.append(TraceRecord(seq, kind, track, name, time,
                                        span, args))

    def begin(self, track: str, name: str, time: Optional[float] = None,
              args: Optional[Dict[str, Any]] = None) -> int:
        """Open a span; returns its id (pass it to :meth:`end`)."""
        span = self._next_span
        self._next_span = span + 1
        self._append(KIND_BEGIN, track, name, time, span, args)
        return span

    def end(self, span: int, time: Optional[float] = None,
            args: Optional[Dict[str, Any]] = None,
            track: str = "", name: str = "") -> None:
        """Close a span.  ``track``/``name`` should repeat the begin's so
        exporters can label the end event without an index."""
        self._append(KIND_END, track, name, time, span, args)

    def instant(self, track: str, name: str, time: Optional[float] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        self._append(KIND_INSTANT, track, name, time, 0, args)

    def counter(self, track: str, name: str, value: float,
                time: Optional[float] = None) -> None:
        """One sample of a time-varying quantity (a counter track)."""
        self._append(KIND_COUNTER, track, name, time, 0, {"value": value})


class NullTracer(Tracer):
    """The disabled tracer: every recording method is a no-op.

    Instrumented hot paths guard with ``if tracer.enabled:`` and never
    reach these methods; the overrides exist so cold paths may call them
    unguarded without branching.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(Journal(capacity=1))

    def bind_clock(self, engine) -> None:
        return None

    def begin(self, track: str, name: str, time: Optional[float] = None,
              args: Optional[Dict[str, Any]] = None) -> int:
        return 0

    def end(self, span: int, time: Optional[float] = None,
            args: Optional[Dict[str, Any]] = None,
            track: str = "", name: str = "") -> None:
        return None

    def instant(self, track: str, name: str, time: Optional[float] = None,
                args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def counter(self, track: str, name: str, value: float,
                time: Optional[float] = None) -> None:
        return None


#: Module-level no-op singleton: the default ``tracer`` everywhere.
NO_TRACER = NullTracer()
