"""Journal exporters: Chrome-trace/Perfetto JSON and compact JSONL.

The Chrome trace format (loadable at https://ui.perfetto.dev or
``chrome://tracing``) renders each journal track as one named thread:
spans become async ``b``/``e`` event pairs keyed by span id, instants
become ``i`` events and counter samples become ``C`` events.

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
        if kind == KIND_BEGIN or kind == KIND_END:
            events.append({"ph": "b" if kind == KIND_BEGIN else "e",
                           "cat": record.track, "name": record.name,
                           "id": str(record.span), "pid": _PID, "tid": tid,
                           "ts": ts, "args": record.args or {}})
        elif kind == KIND_INSTANT:
            events.append({"ph": "i", "cat": record.track,
                           "name": record.name, "pid": _PID, "tid": tid,
                           "ts": ts, "s": "t", "args": record.args or {}})
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


#: Each record field's JSON types (a ``bool`` is no ``int``: one value of
#: another type would change its digest column's encoding).  Every line
#: carries the first five; ``span`` and ``args`` may be left out.
_FIELD_TYPES = {"seq": (int,), "kind": (str,), "track": (str,), "name": (str,),
                "t": (int, float), "span": (int,), "args": (dict,)}


def read_jsonl(path: str) -> Journal:
    """Rebuild a journal from a JSONL dump (for offline checking).

    A line that is not one JSON object carrying every record field with
    its type — a truncated write, say, or a hand-edited ``t`` in quotes —
    is a ``ValueError`` naming the file and line.
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
            missing = [key for key in list(_FIELD_TYPES)[:5]
                       if key not in data]
            if missing:
                raise ValueError(f"{where}: record lacks {missing}")
            for key, types in _FIELD_TYPES.items():
                if key in data and type(data[key]) not in types:
                    raise ValueError(
                        f"{where}: {key} must be "
                        f"{' or '.join(t.__name__ for t in types)}, got "
                        f"{type(data[key]).__name__}")
            if data["kind"] not in (KIND_BEGIN, KIND_END, KIND_INSTANT,
                                    KIND_COUNTER):
                raise ValueError(f"{where}: kind {data['kind']!r} is not "
                                 "one of BEIC")
            journal.append(TraceRecord(
                data["seq"], data["kind"], data["track"], data["name"],
                data["t"], data.get("span", 0), data.get("args")))
    return journal
