#!/usr/bin/env python
"""Run the figure experiments (optionally in parallel) and report headlines.

Fans the independent experiment arms over a process pool (they share no
state — each builds its own engine and RNG substreams from an explicit
seed) and prints every task's headline on the simulated clock.  The
report is the same bytes for the same seeds on any host; simulator speed
is measured by ``python3 bench/run.py``.

Examples::

    PYTHONPATH=src python scripts/run_experiments.py
    PYTHONPATH=src python scripts/run_experiments.py --smoke --serial
    PYTHONPATH=src python scripts/run_experiments.py \
        --figures fig17 fig19 --processes 4 --output figures.json
    PYTHONPATH=src python scripts/run_experiments.py --smoke \
        --trace-figure fig17:sm --trace trace_fig17.json \
        --journal trace_fig17.jsonl --check-trace
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import runner  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(
        description="parallel experiment sweep -> figure headlines")
    parser.add_argument("--figures", nargs="*", default=None,
                        help="subset of figures to run (default: all)")
    parser.add_argument("--processes", type=int, default=None,
                        help="pool size (default: min(tasks, cpu_count))")
    parser.add_argument("--serial", action="store_true",
                        help="run tasks inline in this process")
    parser.add_argument("--smoke", action="store_true",
                        help="use the scaled-down task set (CI-friendly)")
    parser.add_argument("--traffic", choices=("event", "fluid"),
                        default="event",
                        help="traffic engine for the request-driven "
                             "figures (fig17/fig18): per-request events "
                             "or the hybrid fluid engine")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="run ONE figure traced and write a Chrome/"
                             "Perfetto trace JSON to this path")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="also write the raw journal as JSONL "
                             "(requires --trace)")
    parser.add_argument("--trace-figure", default="fig17",
                        metavar="FIG[:ARM]",
                        help="which task to trace, e.g. fig17 or fig17:sm "
                             "(default: fig17)")
    parser.add_argument("--check-trace", action="store_true",
                        help="fail (exit 1) if the TraceChecker finds any "
                             "invariant violation in the trace, or the "
                             "journal ring dropped records")
    args = parser.parse_args()

    tasks = runner.SMOKE_TASKS if args.smoke else runner.DEFAULT_TASKS
    if args.traffic != "event":
        tasks = runner.with_traffic(tasks, args.traffic)

    if args.trace:
        task = runner.select_task(tasks, args.trace_figure)
        result = runner.run_traced(task, args.trace,
                                   journal_path=args.journal)
        print(json.dumps(result, indent=1, sort_keys=True))
        violations = result["trace"]["violations"]
        for violation in violations:
            print(f"::error title=trace invariant::"
                  f"{violation['invariant']}: {violation['message']}")
        dropped = result["trace"]["dropped"]
        if dropped:
            print(f"::error title=trace truncated::journal dropped "
                  f"{dropped} of {result['trace']['records']} records at "
                  f"capacity {result['trace']['capacity']}: the invariants "
                  f"were checked on a truncated trace")
        if args.check_trace and (violations or dropped):
            return 1
        return 0

    if args.figures:
        known = {task["figure"] for task in tasks}
        unknown = set(args.figures) - known
        if unknown:
            parser.error(f"unknown figures: {sorted(unknown)} "
                         f"(known: {sorted(known)})")
        tasks = [task for task in tasks if task["figure"] in args.figures]

    report = runner.run_experiments(tasks, processes=args.processes,
                                    serial=args.serial)

    text = json.dumps(report, indent=1, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
