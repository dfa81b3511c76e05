"""Journal exporters: Chrome-trace/Perfetto JSON and compact JSONL.

The Chrome trace format (loadable at https://ui.perfetto.dev or
``chrome://tracing``) renders each journal track as one named thread:
spans become async ``b``/``e`` event pairs keyed by span id, instants
become ``i`` events, counter samples become ``C`` events, and instants
carrying a ``wall_ms`` arg (solver stages) become complete ``X`` events
whose duration is the measured wall-clock — so simulated-time tracks and
wall-clock solver stages live in one timeline.

Simulated seconds map to trace microseconds (1 s → 1,000,000 µs).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .tracer import (
    KIND_BEGIN,
    KIND_COUNTER,
    KIND_END,
    KIND_INSTANT,
    Journal,
    TraceRecord,
)

__all__ = ["chrome_trace_events", "write_chrome_trace", "write_jsonl",
           "read_jsonl"]

_PID = 1
_US_PER_SIM_SECOND = 1e6


def chrome_trace_events(journal: Journal) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for a journal."""
    tids = {track: tid for tid, track in enumerate(journal.tracks(), start=1)}
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "name": "process_name",
         "args": {"name": "repro-sim"}},
    ]
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append({"ph": "M", "pid": _PID, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
        events.append({"ph": "M", "pid": _PID, "tid": tid,
                       "name": "thread_sort_index", "args": {"sort_index": tid}})
    for record in journal:
        tid = tids[record.track]
        ts = record.time * _US_PER_SIM_SECOND
        kind = record.kind
        if kind == KIND_BEGIN:
            events.append({"ph": "b", "cat": record.track,
                           "name": record.name, "id": str(record.span),
                           "pid": _PID, "tid": tid, "ts": ts,
                           "args": record.args or {}})
        elif kind == KIND_END:
            events.append({"ph": "e", "cat": record.track,
                           "name": record.name, "id": str(record.span),
                           "pid": _PID, "tid": tid, "ts": ts,
                           "args": record.args or {}})
        elif kind == KIND_INSTANT:
            args = record.args or {}
            wall_ms = args.get("wall_ms")
            if wall_ms is not None:
                # Wall-clock-measured stage: render as a complete slice
                # whose duration is the measurement.
                events.append({"ph": "X", "cat": record.track,
                               "name": record.name, "pid": _PID, "tid": tid,
                               "ts": ts, "dur": wall_ms * 1e3, "args": args})
            else:
                events.append({"ph": "i", "cat": record.track,
                               "name": record.name, "pid": _PID, "tid": tid,
                               "ts": ts, "s": "t", "args": args})
        elif kind == KIND_COUNTER:
            value = (record.args or {}).get("value", 0)
            events.append({"ph": "C", "name": f"{record.track}.{record.name}",
                           "pid": _PID, "tid": tid, "ts": ts,
                           "args": {record.name: value}})
    return events


def write_chrome_trace(journal: Journal, path: str) -> None:
    """Write a Perfetto-loadable Chrome trace JSON file."""
    document = {"traceEvents": chrome_trace_events(journal),
                "displayTimeUnit": "ms",
                "otherData": {"records": len(journal),
                              "dropped": journal.dropped,
                              "digest": journal.digest()}}
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")


def write_jsonl(journal: Journal, path: str) -> None:
    """Compact journal dump: one JSON record per line."""
    with open(path, "w") as handle:
        for record in journal:
            handle.write(json.dumps(record.as_dict(), sort_keys=True))
            handle.write("\n")


#: What ``read_jsonl`` needs of every line (``span`` and ``args`` may be
#: left out).
_RECORD_FIELDS = ("seq", "kind", "track", "name", "t")


def read_jsonl(path: str) -> Journal:
    """Rebuild a journal from a JSONL dump (for offline checking).

    A line that is not one JSON object carrying every record field — a
    truncated write, say — is a ``ValueError`` naming the file and line.
    """
    journal = Journal()
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{number}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{where}: not JSON: {error.msg} (column "
                                 f"{error.colno})") from None
            if not isinstance(data, dict):
                raise ValueError(f"{where}: a record is a JSON object, got "
                                 f"{type(data).__name__}")
            missing = [key for key in _RECORD_FIELDS if key not in data]
            if missing:
                raise ValueError(f"{where}: record lacks {missing}")
            journal.append(TraceRecord(
                data["seq"], data["kind"], data["track"], data["name"],
                data["t"], data.get("span", 0), data.get("args")))
    return journal
