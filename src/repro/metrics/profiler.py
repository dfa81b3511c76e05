"""Lightweight wall-clock stage profiler for hot paths.

The solver records per-stage cumulative wall-clock time and counters into
a :class:`Profiler`.  The design goal is *negligible overhead*: the hot
path calls ``perf_counter()`` itself and hands the elapsed seconds to
:meth:`add`, so there is no context-manager or closure allocation per
sample on the critical path — and this module reads no clock of its own.

``LocalSearch`` attaches a profiler to every :class:`SolveResult` as
``result.profile``; the Fig 21/22 report formatters print it, and
``scripts/profile_solver.py`` combines it with ``cProfile`` for
function-level detail.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional


class Profiler:
    """Cumulative per-stage timers plus named event counters."""

    __slots__ = ("_stages", "_counters")

    def __init__(self) -> None:
        # stage -> [calls, seconds]
        self._stages: Dict[str, list] = {}
        self._counters: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def add(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Accumulate ``seconds`` of wall-clock into ``stage``."""
        entry = self._stages.get(stage)
        if entry is None:
            self._stages[stage] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        """Increment the ``name`` counter by ``n``."""
        self._counters[name] = self._counters.get(name, 0) + n

    def set_counter(self, name: str, value: int) -> None:
        self._counters[name] = value

    # -- reading -----------------------------------------------------------

    def seconds(self, stage: str) -> float:
        entry = self._stages.get(stage)
        return entry[1] if entry is not None else 0.0

    # -- presentation ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view (JSON-friendly) of everything recorded."""
        return {
            "stages": {name: {"calls": calls, "seconds": seconds}
                       for name, (calls, seconds) in self._stages.items()},
            "counters": dict(self._counters),
        }

    def to_trace(self, tracer, track: str = "solver",
                 time: Optional[float] = None, prefix: str = "",
                 skip: Collection[str] = ()) -> None:
        """Emit the recorded stages/counters onto a trace track.

        Wall-clock values land in ``wall_ms`` args, which the journal
        digest deliberately excludes — so traces stay bit-identical across
        machines while still carrying solver timing for Perfetto.  Stage
        names, call counts and counters *are* digested; ``skip`` names
        the stages and counters to leave out.
        """
        if not tracer.enabled:
            return
        for name in sorted(self._stages):
            if name in skip:
                continue
            calls, seconds = self._stages[name]
            tracer.instant(track, prefix + name, time,
                           {"calls": calls, "wall_ms": seconds * 1e3})
        counters = {name: self._counters[name]
                    for name in sorted(self._counters) if name not in skip}
        if counters:
            tracer.instant(track, prefix + "counters", time, counters)

    def format(self, total: Optional[float] = None, indent: str = "  ") -> str:
        """An aligned per-stage table; ``total`` (e.g. solve wall-clock)
        adds a percent-of-total column."""
        if not self._stages and not self._counters:
            return f"{indent}(no profile samples)"
        lines = []
        if self._stages:
            width = max(len(name) for name in self._stages)
            for name, (calls, seconds) in sorted(
                    self._stages.items(), key=lambda kv: -kv[1][1]):
                line = (f"{indent}{name:<{width}}  {seconds * 1e3:9.2f} ms"
                        f"  x{calls:<8d}")
                if total and total > 0:
                    line += f" {100.0 * seconds / total:5.1f}%"
                lines.append(line)
        if self._counters:
            pairs = ", ".join(f"{name}={value}" for name, value in
                              sorted(self._counters.items()))
            lines.append(f"{indent}counters: {pairs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Profiler({self.snapshot()!r})"
