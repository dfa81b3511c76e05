"""The repo benchmark: one command, seven workloads, two clocks.

For people::

    python bench/run.py [--workload NAME] [--seed S] [--repeats N]
                        [--quick] [--out FILE]

runs, per workload, one discarded warm-up unit, N timed units with
tracing off (the end-to-end metrics: median, min, max, N) and one traced
unit (the per-layer split), prints every metric by name with its unit and
clock, checks the outputs, and writes everything with its provenance to
``--out`` for ``compare.py``.

For the driver (``BENCHMARK.json``)::

    python bench/run.py --workload NAME --seed S --seconds T --trace 0|1

repeats units until they have measured for T seconds and prints, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

A *unit* is one set-up plus one measured region of one workload in a
fresh interpreter (``worker.py``) with ``PYTHONHASHSEED=0``; units run
one at a time.  Host times are normalised to reference speed
(``calibrate.py``); ``sim_*`` values, counts and the ``sim_fingerprint``
repeat bit-exactly per seed, and units of one invocation that disagree
on the fingerprint fail it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import sample  # noqa: E402
from catalogue import (CATALOGUE, END_TO_END, NAMES, UNIT,  # noqa: E402
                       layer_metrics, traced_self_total_s)

WORKLOAD_NAMES = ("upgrade_event", "skew_scatter", "chaos_traced",
                  "map_publish", "map_lookup", "solver_place",
                  "fluid_diurnal")

#: A unit that has not finished by then is killed and fails the run.
UNIT_TIMEOUT_S = 150.0

#: Fewest untraced units of a driver run.
MIN_UNITS = 3


class BenchError(RuntimeError):
    """A unit crashed, timed out, or printed no result."""


def run_unit(workload: str, seed: int, quick: bool = False,
             trace: bool = False, variant: str = "",
             spans_out: str = "") -> Dict[str, Any]:
    """Run one unit in a fresh interpreter and return its raw result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--parent-cal"]
    command += [repr(sample()) for _ in range(4)]
    if quick:
        command.append("--quick")
    if trace:
        command.append("--trace")
    if variant:
        command += ["--variant", variant]
    if spans_out:
        command += ["--spans-out", spans_out]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: unit exceeded {UNIT_TIMEOUT_S:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: unit exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: unit printed nothing")
    return json.loads(lines[-1])


def failed_checks(units: Sequence[Dict[str, Any]]) -> List[str]:
    """Every failed check of every unit, plus fingerprint disagreement."""
    problems = []
    for unit in units:
        for name, ok, detail in unit["checks"]:
            if not ok:
                problems.append(f"{unit['workload']}: {name}: {detail}")
        spans = unit.get("spans")
        if spans and spans["nesting_errors"]:
            problems.append(f"{unit['workload']}: {spans['nesting_errors']} "
                            f"spans do not nest")
    comparable = [u for u in units if not u["variant"]]
    prints = {u["fingerprint"] for u in comparable}
    if len(prints) > 1:
        kinds = ", ".join(
            f"{'traced' if u['traced'] else 'plain'}:{u['fingerprint'][:12]}"
            for u in comparable)
        problems.append(f"{comparable[0]['workload']}: sim_fingerprint "
                        f"differs between units of one seed ({kinds})")
    return problems


def slice_sums(units: Sequence[Dict[str, Any]], key: str) -> Dict[str, float]:
    """Per slice label, the sum over that label's slices of the median of
    the slice's normalised repeats (``calibrate.py`` says why)."""
    layouts = {tuple(s[0] for s in unit[key]) for unit in units}
    if len(layouts) != 1:
        raise BenchError(f"{units[0]['workload']}: units of one seed ran "
                         f"different {key}")
    sums: Dict[str, float] = {}
    for index, label in enumerate(layouts.pop()):
        sums[label] = sums.get(label, 0.0) + statistics.median(
            unit[key][index][2] for unit in units)
    return sums


def composite(units: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The host times of one workload from several units of one seed:
    region (``wall_s``, per label ``phase_s``), set-up (``setup_s``), the
    median raw region (``raw_wall_s``) and the medians of the
    workload-timed host values (``host``)."""
    phase = slice_sums(units, "slices")
    host = {name: statistics.median(unit["host"][name] * unit["speed"]
                                    for unit in units)
            for name in units[0]["host"]}
    return {"wall_s": sum(phase.values()), "phase_s": phase, "host": host,
            "setup_s": sum(slice_sums(units, "setup_slices").values()),
            "raw_wall_s": statistics.median(u["wall_raw_s"] for u in units)}


def end_to_end(units: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Every end-to-end metric the workload defines, from its untraced
    units: host times from the slice composite, memory as the median."""
    first = units[0]
    attempted = first["attempted"]
    host = composite(units)
    wall = host["wall_s"]
    values = {
        "setup_s": host["setup_s"],
        "wall_s": wall,
        "ops_per_s": first["ops"] / wall,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "success_ratio": (attempted - first["failed"]) / attempted,
        "failed_ratio": first["failed"] / attempted,
    }
    for name in ("sim_p99_ms", "sim_fanout_p99_ms"):
        if name in first["sim"]:
            values[name] = first["sim"][name]
    return values


HOST_METRICS = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")


def run_to_run_spread(units: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """(max - min) / median of each host-time metric over the composites
    that leave one unit out: how far this invocation's own numbers move
    when one of its repeats is replaced.  ``compare.py`` calls a
    difference smaller than this unresolved."""
    if len(units) < 3:
        rows = [end_to_end([unit]) for unit in units]
    else:
        rows = [end_to_end([u for u in units if u is not left_out])
                for left_out in units]
    spread = {}
    for name in HOST_METRICS:
        values = [row[name] for row in rows]
        spread[name] = (max(values) - min(values)) / statistics.median(values)
    return spread


def per_layer(plain: Sequence[Dict[str, Any]],
              traced: Sequence[Dict[str, Any]],
              obs_off: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Median over the traced units of every catalogue metric."""
    base = composite(plain)
    traced_wall = composite(traced)["wall_s"]
    off_wall = composite(obs_off)["wall_s"] if obs_off else None
    rows = [layer_metrics(unit, base, traced_wall, off_wall)
            for unit in traced]
    return {name: statistics.median(row[name] for row in rows)
            for name in NAMES}


# -- the driver's contract ----------------------------------------------------

def driver_run(workload: str, seed: int, seconds: float, trace: bool,
               quick: bool) -> int:
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    obs_off: List[Dict[str, Any]] = []
    measured = 0.0
    while True:
        unit = run_unit(workload, seed, quick=quick)
        plain.append(unit)
        measured += unit["wall_raw_s"]
        last = unit["wall_raw_s"]
        if trace:
            unit = run_unit(workload, seed, quick=quick, trace=True)
            traced.append(unit)
            measured += unit["wall_raw_s"]
            last += unit["wall_raw_s"]
        # Stop at the repeat count whose measured time is nearest the
        # budget; untraced, at least three units run, because a slice
        # counts with the median of its repeats and two have no median.
        if (len(plain) >= (1 if trace else MIN_UNITS)
                and measured + last / 2.0 >= seconds):
            break
    if trace and workload == "chaos_traced":
        obs_off.append(run_unit(workload, seed, quick=quick, trace=True,
                                variant="obs_off"))

    units = plain + traced + obs_off
    problems = failed_checks(units)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if trace:
        values = per_layer(plain, traced, obs_off)
        metrics = {name: {"value": values[name], "unit": UNIT[name]}
                   for name in NAMES}
    else:
        values = end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit_name}
                   for name, unit_name, _, _, _, in_driver in END_TO_END
                   if in_driver}
    print(f"{workload} seed={seed} units={len(plain)} plain"
          f"{f' + {len(traced)} traced' if trace else ''} "
          f"measured={measured:.2f}s "
          f"sim_fingerprint={plain[0]['fingerprint']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": plain[0]["attempted"],
        "failed": plain[0]["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


# -- for people ---------------------------------------------------------------

def provenance(seed: int, repeats: int, quick: bool) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "python_build": " ".join(platform.python_build()),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed, "timed_repeats": repeats, "warmup_repeats": 1,
        "quick": quick, "python_hash_seed": 0,
        "calibration_sample_s": statistics.median(
            sample() for _ in range(9)),
    }


def human_workload(workload: str, seed: int, repeats: int,
                   quick: bool) -> Dict[str, Any]:
    run_unit(workload, seed, quick=quick)            # discarded warm-up
    plain = [run_unit(workload, seed, quick=quick) for _ in range(repeats)]
    traced = [run_unit(workload, seed, quick=quick, trace=True)]
    obs_off = ([run_unit(workload, seed, quick=quick, trace=True,
                         variant="obs_off")]
               if workload == "chaos_traced" else [])
    first = plain[0]
    return {
        "op": first["op"], "params": first["params"],
        "attempted": first["attempted"], "failed": first["failed"],
        "sim_fingerprint": first["fingerprint"],
        "traced_fingerprint": traced[0]["fingerprint"],
        "samples": first["samples"],
        "end_to_end": end_to_end(plain),
        "spread": run_to_run_spread(plain),
        "per_layer": per_layer(plain, traced, obs_off),
        "traced_self_total_s": traced_self_total_s(traced[0]),
        "traced_wall_s": traced[0]["wall_s"],
        "spans": traced[0]["spans"]["spans"],
        "problems": failed_checks(plain + traced + obs_off),
    }


def print_workload(name: str, result: Dict[str, Any], repeats: int) -> None:
    print(f"\n== {name}: {result['op']} "
          f"({repeats} timed units + 1 warm-up + 1 traced) ==")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"sim_fingerprint {result['sim_fingerprint']}")
    print(f"  {'end-to-end':<20}{'value':>14}  {'unit':<7}{'clock':<6}"
          f"{'bound':>8}  spread over leave-one-out composites")
    for metric, unit_name, clock, _, bound, _ in END_TO_END:
        if metric not in result["end_to_end"]:
            continue
        line = (f"  {metric:<20}{result['end_to_end'][metric]:>14.6g}  "
                f"{unit_name:<7}{clock:<6}{bound:>8g}")
        if metric in result["spread"]:
            line += f"  {result['spread'][metric]:.1%} (N={repeats})"
        elif metric in result["samples"]:
            line += f"  exact; {result['samples'][metric]} samples"
        else:
            line += "  exact"
        print(line)
    print("  per-layer (traced unit; 0 = the workload does not use it)")
    for metric, unit_name, _, _ in CATALOGUE:
        value = result["per_layer"][metric]
        if value:
            print(f"  {metric:<44}{value:>18.6g}  {unit_name}")
    print(f"  {result['spans']} spans; their self times add up to "
          f"{result['traced_self_total_s']:.3f} s of the traced unit's "
          f"{result['traced_wall_s']:.3f} s")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def human_run(workloads: Sequence[str], seed: int, repeats: int,
              quick: bool, out: str) -> int:
    report = {"provenance": provenance(seed, repeats, quick),
              "workloads": {}}
    print("provenance: " + json.dumps(report["provenance"]))
    failed = False
    for name in workloads:
        result = human_workload(name, seed, repeats, quick)
        report["workloads"][name] = result
        print_workload(name, result, repeats)
        failed = failed or bool(result["problems"])
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print(f"\nwrote {out}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed units per workload (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes: all seven in under a minute")
    parser.add_argument("--out", default="", help="write the report here")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = print per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            return driver_run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.quick)
        if args.repeats < 1:
            parser.error("--repeats must be at least 1")
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return human_run(names, args.seed, args.repeats, args.quick,
                         args.out)
    except BenchError as error:
        print(f"FAILED {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
