"""Fence: which modules under ``src/repro`` may read a host clock, and
that what they read decides nothing.

Simulated behaviour and every experiment headline must depend only on
the seed.  Host time is read in exactly one place, the solver, and only
to measure: ``solve_time`` (the y-axis of Figs 21/22), ``setup_time``
and the ``timed_out`` flag.  Within the solver only
``LocalSearch.__init__`` and ``LocalSearch.solve`` read it, so no timer
sits in the search loop; what a solve did is counted, not timed.  A
solve stops when it converges or reaches ``MOVE_BUDGET``, never on a
deadline; the jumping-clock test below is the fence that no read
reaches a decision.  How fast the
simulator itself runs is measured from outside ``src/``, by ``bench/``.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.chaos import get, run_scenario
from repro.solver import local_search
from tests.mutants import load_pins, moved

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

HOST_CLOCK = re.compile(
    r"\btime\.(?:perf_counter|monotonic|time|process_time)(?:_ns)?\s*\("
    r"|^\s*from\s+time\s+import\b", re.MULTILINE)

ALLOWED = {"solver/local_search.py"}


def test_only_the_solver_reads_a_host_clock():
    readers = {path.relative_to(SRC).as_posix()
               for path in SRC.rglob("*.py")
               if HOST_CLOCK.search(path.read_text())}
    assert readers == ALLOWED


def test_the_solver_reads_the_clock_only_to_flag_and_report():
    """``time`` is named only where a solve starts and ends: no per-stage
    timer in the search loop."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Name) and node.id == "time":
            readers.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((SRC / "solver/local_search.py").read_text()), ())
    assert readers == {"LocalSearch.__init__", "LocalSearch.solve"}


class JumpingClock:
    """Stands in for the solver's ``time`` module on a host that is
    arbitrarily slow: every read is 10 s after the one before, so any
    budget in host seconds is spent within a few reads."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 10.0
        return self.now


@pytest.mark.parametrize("name", ["crash_single",
                                  "maintenance_racing_upgrade",
                                  "hot_shard_kill"])
def test_a_slow_host_changes_no_decision(name, monkeypatch):
    """Library runs whose solves move shards keep their pinned
    pins however slow the host's clock says it is."""
    monkeypatch.setattr(local_search, "time", JumpingClock())
    result = run_scenario(get(name), arm="sm", seed=0)
    assert moved(result.tracks, load_pins()[f"{name}:sm"]) == []
