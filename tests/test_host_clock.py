"""Fence: which modules under ``src/repro`` may read a host clock.

Simulated behaviour and every experiment headline must depend only on
the seed.  Host time is read in exactly one place: the solver's
wall-clock budget / ``solve_time`` (the y-axis of Figs 21/22), which
hands the elapsed seconds it measured to the stage profiler.  How fast
the simulator itself runs is measured from outside ``src/``, by
``bench/``.
"""

import re
from pathlib import Path

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
