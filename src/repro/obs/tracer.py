"""Deterministic sim-time tracing: spans, instants, and the ring journal.

The tracer is the write side of the observability subsystem.  It appends
each record's fields to the columns of a bounded :class:`Journal`;
records carry *simulated* time only and every id (span ids, sequence
numbers) comes from per-tracer counters — never from wall clocks or
``id()`` — so two seeded runs produce byte-identical journals (see
DESIGN.md, "Observability").

The digests hash the journal column by column, not record by record:
each record field, and each arg key of each arg-key set ("shape"), is
one column of values encoded in bulk with a type tag (see
:func:`_hash_columns`).

Disabled tracing is the common case and must cost ~nothing: hot paths
hold a tracer reference and branch on the cached class attribute
``tracer.enabled`` (``False`` on the module-level :data:`NO_TRACER`
singleton), paying one attribute load + jump per potential record.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from operator import itemgetter
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

__all__ = ["TraceRecord", "Journal", "Tracer", "NullTracer", "NO_TRACER"]

#: Record kinds: span begin / span end / instant / counter sample.
KIND_BEGIN = "B"
KIND_END = "E"
KIND_INSTANT = "I"
KIND_COUNTER = "C"

def _packed(code: str, values: Sequence[Any]) -> bytes:
    """``values`` as a little-endian machine array, whatever the host."""
    packed = array(code, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _encoded(values: Sequence[Any]) -> Tuple[bytes, bytes]:
    """One column's type tag and bytes.

    All-``str`` values are joined on NUL (``s``) when none holds a NUL,
    all-``float`` values are packed as doubles (``d``) and all-``int``
    values as 64-bit ints (``q``).  Anything else — mixed types, ``bool``,
    ``None``, lists, an int past 64 bits — is its ``repr`` (``r``).  The
    tag keeps ``1``, ``1.0`` and ``True`` apart, and each encoding can be
    decoded, so two different columns never give the same tag and bytes.
    """
    try:
        text = "\0".join(values)
    except TypeError:
        pass
    else:
        if text.count("\0") == len(values) - 1:
            return b"s", text.encode("utf-8", "surrogatepass")
    types = set(map(type, values))
    if types == {float}:
        return b"d", _packed("d", values)
    if types == {int}:
        try:
            return b"q", _packed("q", values)
        except OverflowError:
            pass
    return b"r", repr(values).encode("utf-8", "surrogatepass")


def _hash_column(hasher: Any, values: Sequence[Any]) -> None:
    """Feed one column: its type tag, value count and byte count, then
    its bytes."""
    tag, payload = _encoded(values)
    hasher.update(tag + len(values).to_bytes(8, "little")
                  + len(payload).to_bytes(8, "little"))
    hasher.update(payload)


def _hash_columns(columns: Sequence[List[Any]], with_seq: bool) -> str:
    """SHA-256 over the rows of ``columns``, one column at a time.

    First the fixed fields, ``seq`` (when ``with_seq``), ``kind``,
    ``track``, ``name``, ``time`` and ``span``, one column each.  Then the
    args: a record's *shape* is the sorted tuple of its keys, numbered in
    order of first appearance; one column holds each record's shape
    number, then each shape contributes its key names and one column per
    key of the values its records carry.  Arg insertion order therefore
    never reaches the hash; every value does, and so do its type and its
    record.
    """
    hasher = hashlib.sha256()
    for values in columns[0 if with_seq else 1:6]:
        _hash_column(hasher, values)
    shape_of_order: Dict[tuple, int] = {}
    number_of_shape: Dict[tuple, int] = {}
    shapes: List[tuple] = []
    groups: List[List[Dict[str, Any]]] = []
    numbers: List[int] = []
    for args in columns[6]:
        order = tuple(args) if args else ()
        number = shape_of_order.get(order)
        if number is None:
            shape = tuple(sorted(order))
            number = number_of_shape.get(shape)
            if number is None:
                number = number_of_shape[shape] = len(shapes)
                shapes.append(shape)
                groups.append([])
            shape_of_order[order] = number
        numbers.append(number)
        groups[number].append(args)
    _hash_column(hasher, numbers)
    for shape, group in zip(shapes, groups):
        _hash_column(hasher, shape)
        for key in shape:
            _hash_column(hasher, list(map(itemgetter(key), group)))
    return hasher.hexdigest()


class TraceRecord(NamedTuple):
    """A read view of one journal row (the journal keeps columns)."""

    seq: int
    kind: str
    track: str
    name: str
    time: float
    span: int                         # per track; 0: not tied to a span
    args: Optional[Dict[str, Any]]    # None or a dict of JSON-able values

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


class Journal:
    """Bounded journal of trace records, kept as one list per field.

    ``len``, iteration, :meth:`columns` and both digests see exactly the
    last ``capacity`` records (``dropped`` counts the rest).  A read trims
    the lists to that window and the tracer trims them at twice it, so an
    append is seven list appends.  Bounded by design: a traced run keeps
    the most recent window, and the :class:`~repro.obs.checker.TraceChecker`
    tolerates a truncated prefix (unmatched span ends are ignored).
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        self.capacity = capacity
        self._columns: Tuple[List[Any], ...] = tuple([] for _ in range(7))
        self._trimmed = 0

    def append(self, record: TraceRecord) -> None:
        for column, value in zip(self._columns, record):
            column.append(value)

    def columns(self) -> Tuple[List[Any], ...]:
        """The window's ``seq, kind, track, name, time, span, args``
        lists, trimmed to it and read in place (not to be modified)."""
        excess = len(self._columns[0]) - self.capacity
        if excess > 0:
            for column in self._columns:
                del column[:excess]
            self._trimmed += excess
        return self._columns

    @property
    def appended(self) -> int:
        """Records ever appended, the dropped ones included."""
        return self._trimmed + len(self._columns[0])

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return self.appended - len(self)

    def __len__(self) -> int:
        return min(len(self._columns[0]), self.capacity)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord._make, zip(*self.columns()))

    def tracks(self) -> List[str]:
        """Sorted distinct track names present in the journal."""
        return sorted(set(self.columns()[2]))

    def digest(self) -> str:
        """SHA-256 over every retained record, column by column — the
        seed-parity fingerprint for enabled tracing.  It covers the ring's
        window only, so a journal that dropped records hashes like a fresh
        one holding the same survivors, and a JSONL reload hashes like the
        original."""
        return _hash_columns(self.columns(), with_seq=True)

    def track_digests(self) -> Dict[str, str]:
        """``{track: sha256}`` over what the simulated *system* did, not
        over how the simulator got there: one hash per track, each over
        that track's records alone, with every record's ``seq`` (its
        position among all tracks) left out.  A change that moves one
        track leaves every other track's hash alone, and a substrate
        change that executes fewer or different events while every
        modelled component behaves the same moves :meth:`digest` and
        none of these."""
        columns = self.columns()
        rows: Dict[str, List[int]] = {}
        for row, track in enumerate(columns[2]):
            rows.setdefault(track, []).append(row)
        return {track: _hash_columns(
                    [list(map(column.__getitem__, kept))
                     for column in columns], with_seq=False)
                for track, kept in sorted(rows.items())}


class Tracer:
    """Records spans / instants / counters into a :class:`Journal`.

    Sequence numbers are small monotonic ints allocated per tracer, span
    ids per track, so how many spans one track opens never renumbers
    another's (:meth:`Journal.track_digests`).  The clock is bound to a
    simulation engine with :meth:`bind_clock` (records made before
    binding stamp ``t=0.0``).
    ``registry`` points at the owning
    :class:`~repro.metrics.MetricsRegistry` so instrumented components
    holding only the tracer can also register gauges.
    """

    enabled = True  # class attribute: one load in hot-path guards

    def __init__(self, journal: Optional[Journal] = None) -> None:
        self.journal = journal if journal is not None else Journal()
        self.registry = None  # set by Observability
        self._engine = None
        self._last_span: Dict[str, int] = {}
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
        journal = self.journal
        seqs, kinds, tracks, names, times, spans, argss = journal._columns
        seqs.append(seq)
        kinds.append(kind)
        tracks.append(track)
        names.append(name)
        times.append(time)
        spans.append(span)
        argss.append(args)
        if len(seqs) > 2 * journal.capacity:
            journal.columns()   # trims to the window

    def begin(self, track: str, name: str, time: Optional[float] = None,
              args: Optional[Dict[str, Any]] = None) -> int:
        """Open a span; returns its id on ``track`` (pass it to
        :meth:`end`)."""
        span = self._last_span[track] = self._last_span.get(track, 0) + 1
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
