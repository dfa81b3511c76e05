"""One unit of one workload, in the fresh interpreter that runs it.

``run.py`` starts this file as a child process once per unit, so every
unit pays interpreter start and imports (they are part of ``setup_s``),
sees an unfragmented heap (four back-to-back in-process repeats of the
largest workload drifted 8 % upwards) and has its own ``ru_maxrss``.

Prints one JSON object, the unit's raw result, as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: Calibration samples on each side of a slice that normalise it.
CAL_WINDOW = 4
#: One calibration sample per this much measured time, at most CAL_MAX
#: after one slice.
CAL_EVERY_S = 0.03
CAL_MAX = 12


def _fingerprint(result: dict) -> str:
    """sha256 over every simulated value and exact count of the unit."""
    simulated = {
        "attempted": result["attempted"], "failed": result["failed"],
        "ops": result["ops"], "sim": result["sim"],
        "counts": result["counts"], "digest": result.get("digest", ""),
    }
    canonical = json.dumps(simulated, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class SolverGuard:
    """Counts every ``Rebalancer.solve`` and catches exhausted budgets.

    ``SearchConfig.time_budget`` is host wall-clock: a solve that runs
    out of it stops early, and from then on the simulated results depend
    on how fast the host is.  Installed in every unit, traced or not."""

    def __init__(self) -> None:
        from repro.solver.api import Rebalancer
        self.solves = self.evaluations = self.moves = 0
        self.final_violations = self.timed_out = 0
        original = Rebalancer.solve
        guard = self

        def solve(rebalancer, *args, **kwargs):
            result = original(rebalancer, *args, **kwargs)
            guard.solves += 1
            guard.evaluations += result.evaluations
            guard.moves += result.moves + result.swaps
            guard.final_violations += result.final_violations
            guard.timed_out += 1 if result.timed_out else 0
            return result

        Rebalancer.solve = solve

    def counts(self) -> dict:
        return {"solver.solves": self.solves,
                "solver.evaluations": self.evaluations,
                "solver.moves": self.moves,
                "solver.final_violations": self.final_violations,
                "solver.timed_out": self.timed_out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--variant", default="")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() in the parent at spawn")
    parser.add_argument("--parent-cal", type=float, nargs="*",
                        help="calibration samples the parent took just "
                             "before the spawn")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    from calibrate import sample, speed_factor
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())

    guard = SolverGuard()
    recorder = None
    if args.trace:
        import spans
        recorder = spans.SpanRecorder()
        spans.install(recorder)

    # Calibration samples in time order; marks[i] is how many had been
    # taken when slice i started.  The parent's samples come first: they
    # are the "before" of the first slice, interpreter start plus imports.
    flat = list(args.parent_cal or [sample() for _ in range(CAL_WINDOW)])
    marks = [len(flat)]
    raw = [("startup", time.monotonic() - spawned_at)]
    flat += [sample() for _ in range(CAL_WINDOW)]
    clock = time.perf_counter

    def timed(steps, record):
        """Run a generator slice by slice, timing each and following it
        with calibration samples in proportion to its length."""
        first = len(raw)
        while True:
            if record:
                recorder.recording = True
            started = clock()
            label = next(steps, None)
            elapsed = clock() - started
            if record:
                recorder.recording = False
            if label is None:
                return first
            marks.append(len(flat))
            raw.append((label, elapsed))
            for _ in range(min(CAL_MAX, max(1, round(elapsed / CAL_EVERY_S)))):
                flat.append(sample())

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick,
                                        variant=args.variant)
    timed(workload.setup(), False)
    region_from = timed(workload.run(), recorder is not None)
    while len(flat) - marks[-1] < CAL_WINDOW:
        flat.append(sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A slice's time is normalised by the median of the CAL_WINDOW samples
    # before it and the CAL_WINDOW after it (calibrate.py says why).
    normalised = []
    for (label, elapsed), mark in zip(raw, marks):
        window = flat[max(0, mark - CAL_WINDOW):mark + CAL_WINDOW]
        normalised.append((label, elapsed,
                           elapsed * speed_factor(statistics.median(window))))
    setup_slices = normalised[:region_from]
    slices = normalised[region_from:]
    wall_raw = sum(elapsed for _, elapsed, _ in slices)
    wall = sum(value for _, _, value in slices)

    result = workload.outcome()
    result["counts"].update(guard.counts())
    result["checks"].append(
        ("solver_never_ran_out_of_host_time", guard.timed_out == 0,
         f"{guard.timed_out} of {guard.solves} solves timed out"))
    result.update({
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "traced": args.trace, "variant": args.variant,
        "op": workload.op, "params": workload.p,
        "setup_raw_s": sum(elapsed for _, elapsed, _ in setup_slices),
        "setup_s": sum(value for _, _, value in setup_slices),
        "wall_raw_s": wall_raw, "wall_s": wall, "speed": wall / wall_raw,
        "setup_slices": setup_slices, "slices": slices,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": _fingerprint(result),
        "spans": None,
    })
    if recorder is not None:
        result["spans"] = recorder.summarize()
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
