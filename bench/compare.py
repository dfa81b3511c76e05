"""Compare two benchmark reports: ``python bench/compare.py A.json B.json``.

A is the base (the parent commit), B the change; both come from
``python bench/run.py --out``.  One row per workload x end-to-end metric
with both values, the ratio B/A with its base, the bound, and a verdict:

``better`` / ``worse``  B differs from A by more than the bound, and by
                        more than the reports' own run-to-run spread;
``same``                the difference is inside the bound and so is the
                        spread;
``unresolved``          the spread is wider than the bound, or the
                        difference is inside the spread: these two
                        reports cannot tell (run more repeats).

Rows on the simulated clock compare exactly — they repeat bit-for-bit per
seed, so any difference is a change of simulated behaviour; the bound
only says how much worse a *design* change may make them.  The
``sim_fingerprint`` row says whether anything simulated moved at all.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from catalogue import END_TO_END  # noqa: E402

ABSOLUTE_BOUND = {"failed_ratio"}


def worsening(base: float, new: float, better: str, absolute: bool) -> float:
    """How much worse ``new`` is than ``base``: a share of the base (or
    an absolute difference), positive when worse."""
    change = new - base if better == "lower" else base - new
    if absolute:
        return change
    return change / base if base else (0.0 if change == 0 else float("inf"))


def verdict(worse_by: float, bound: float, spread: float) -> str:
    if worse_by > bound:
        return "worse" if worse_by > spread else "unresolved"
    if worse_by < -bound:
        return "better" if -worse_by > spread else "unresolved"
    return "same" if spread <= bound else "unresolved"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple]:
    rows = []
    for workload, base in a["workloads"].items():
        new = b["workloads"].get(workload)
        if new is None:
            continue
        for metric, unit, clock, better, bound, _ in END_TO_END:
            if metric not in base["end_to_end"] \
                    or metric not in new["end_to_end"]:
                continue
            x, y = base["end_to_end"][metric], new["end_to_end"][metric]
            absolute = metric in ABSOLUTE_BOUND
            worse_by = worsening(x, y, better, absolute)
            if clock == "sim":
                spread = 0.0
                result = ("same" if x == y else
                          verdict(worse_by, 0.0, 0.0) + " (simulated)")
            else:
                spread = max(base["spread"].get(metric, 0.0),
                             new["spread"].get(metric, 0.0))
                result = verdict(worse_by, bound, spread)
            rows.append((workload, metric, unit, x, y,
                         y / x if x else float("nan"), bound, absolute,
                         spread, result))
        same = base["sim_fingerprint"] == new["sim_fingerprint"]
        rows.append((workload, "sim_fingerprint", "", None, None, None,
                     None, False, 0.0,
                     "same" if same else "different (simulated)"))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    for side, report in (("A", a), ("B", b)):
        p = report["provenance"]
        print(f"{side}: commit {p['git_commit'][:12]} seed {p['seed']} "
              f"{p['timed_repeats']} units, {p['usable_cpus']} CPUs, "
              f"Python {p['python']}, {p['platform']}")
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        print("warning: the reports used different seeds; simulated rows "
              "will differ for that reason alone")
    print(f"{'workload':<15}{'metric':<19}{'A':>13}{'B':>13}  "
          f"{'B/A (base A)':<22}{'bound':>8}{'spread':>8}  verdict")
    any_worse = False
    for (workload, metric, unit, x, y, ratio, bound, absolute, spread,
         result) in compare(a, b):
        if x is None:
            print(f"{workload:<15}{metric:<19}{'':>13}{'':>13}  {'':<22}"
                  f"{'':>8}{'':>8}  {result}")
            continue
        base = (f"{y - x:+g} on {x:g}" if absolute
                else f"{ratio:.4f} of {x:.5g} {unit}")
        limit = f"{bound:g}" if absolute else f"{bound:.1%}"
        print(f"{workload:<15}{metric:<19}{x:>13.6g}{y:>13.6g}  {base:<22}"
              f"{limit:>8}{spread:>8.1%}  {result}")
        any_worse = any_worse or result.startswith("worse")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
