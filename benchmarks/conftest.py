"""Shared plumbing for the shape suite.

Each figure's test runs its experiment once, prints the same series the
paper's figure reports, and asserts the paper's *shape* on the simulated
clock — who wins, by roughly what factor, where crossovers fall.
Absolute numbers differ from the paper by design (simulated substrate,
scaled-down sizes; see EXPERIMENTS.md).  Nothing here measures how fast
the simulator runs; that is ``python3 bench/run.py``.

pytest captures stdout of passing tests, so every report is also
persisted to ``bench_results.txt`` at the repository root — read that
file (or run with ``-s``) for the full figure-by-figure output.  The
file is keyed by report title: each ``emit`` call rewrites *its own*
section in place and leaves every other section untouched, so running a
subset of the suite (``pytest benchmarks/test_fig17*``) refreshes just
those figures instead of truncating the file or appending duplicates
without bound.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench_results.txt"

# Section delimiter: the report title on a line of its own, boxed so a
# title can never be mistaken for report body text.
_HEADER = re.compile(r"^==\[ (?P<key>.+) \]==$", re.MULTILINE)


def _load_sections() -> Dict[str, str]:
    """Parse bench_results.txt into an ordered {title: body} mapping.

    Content that predates the keyed format (no section headers) is
    dropped — it is regenerated output, not a source of truth.
    """
    try:
        text = RESULTS_PATH.read_text()
    except OSError:
        return {}
    sections: Dict[str, str] = {}
    matches = list(_HEADER.finditer(text))
    for match, nxt in zip(matches, matches[1:] + [None]):
        end = nxt.start() if nxt is not None else len(text)
        sections[match.group("key")] = text[match.end():end].strip("\n")
    return sections


def emit(report: str) -> None:
    """Print a figure report and persist it to bench_results.txt.

    The report's first line is its section key: re-running a test
    replaces that section's stale body in place (first-seen order is
    preserved; new sections append at the end).
    """
    report = report.strip("\n")
    sys.stdout.write("\n" + report + "\n")
    key, _, body = report.partition("\n")
    sections = _load_sections()
    sections[key.strip()] = body.strip("\n")
    out = []
    for title, text in sections.items():
        out.append(f"==[ {title} ]==")
        if text:
            out.append(text)
        out.append("")
    RESULTS_PATH.write_text("\n".join(out).rstrip("\n") + "\n")
