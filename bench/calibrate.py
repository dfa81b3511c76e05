"""Host-speed calibration: a fixed, frozen reference loop.

The sandbox this benchmark runs in changes speed under it.  A fixed
pure-Python quantum measured back to back for 30 s took 7–9 ms most of
the time, ~21 ms (2.5x) for one to three seconds at a stretch about a
quarter of the time, and drifted between 7 and 10 ms even when
undisturbed; CPU time tracks wall time, so it is the machine's speed,
not scheduling.  Identical two-second regions measured anywhere from
1.9 to 4.5 raw seconds, and twelve back-to-back units of one workload
spread 10 % (inter-quartile) and 30 % (range) in raw medians.

Two devices make host time usable here, and every host-time number the
benchmark reports goes through both:

* the measured region is cut into *slices* of about 25 ms of identical
  work; each slice is timed on its own and normalised by the speed of
  the host around it — raw seconds times ``REFERENCE_S`` over the median
  of the calibration samples (runs of the loop below) taken just before
  and just after it, i.e. the seconds the slice would take on a host
  that runs the loop in ``REFERENCE_S`` (``worker.py``);
* a slice counts with the median of its repeats over the units of one
  invocation, and the region is the sum of its slices (``run.py``), so a
  slow stretch that hits one unit's slice is outvoted by the same slice
  in the other units.

On the twelve units above this brought the spread of three-unit
composites to 1.5 % (inter-quartile) and 5 % (range).

The loop is a miniature of what the simulator does all day — tuple heap
pushes and pops, dict probes, method calls, float arithmetic — so that
it slows down with the host the way the simulator does.  It imports
nothing from ``src/`` and must never change: it is the unit of every
host-time metric.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one sample takes on the reference box when undisturbed.
REFERENCE_S = 0.0025

_EVENTS = 3_000


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def bump(self, value: float) -> None:
        self.count += 1
        self.total += value * 1.0000001


def sample() -> float:
    """Run the fixed loop once; return its host seconds."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    cells = [_Cell() for _ in range(64)]
    push = heapq.heappush
    pop = heapq.heappop
    state = 12345
    now = 0.0
    for seq in range(256):
        push(heap, (seq * 0.001, seq, seq & 63))
    for seq in range(256, _EVENTS):
        when, _, slot = pop(heap)
        now = when
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 4095
        table[key] = table.get(key, 0) + 1
        cells[slot].bump(now)
        push(heap, (now + (state & 1023) * 1e-6, seq, key & 63))
    return time.perf_counter() - start


def speed_factor(sample_s: float) -> float:
    """Multiplier turning raw host seconds into reference-speed seconds,
    on a host that currently runs the loop in ``sample_s``."""
    return REFERENCE_S / sample_s
