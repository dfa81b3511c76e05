#!/usr/bin/env python
"""Soft perf-regression gate: compare BENCH_sim.json against the baseline.

Compares per-figure ``wall_seconds`` in a fresh experiment report with
the checked-in pre-optimization baseline and warns (GitHub-annotation
style) when a figure got slower by more than the threshold.  Not
``events_per_sec``: a change that needs fewer engine events for the same
simulated work lowers events/s while making every figure faster.

Soft by design: CI machines are noisy and the smoke sweep runs scaled-
down tasks, so a regression prints ``::warning::`` lines and the script
still exits 0.  Pass ``--hard`` to turn warnings into a non-zero exit
for local gating.

Usage::

    PYTHONPATH=src python scripts/check_perf_regression.py \
        --report BENCH_sim.json --baseline benchmarks/baseline_sim.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def same_work(stats: dict, base: dict) -> bool:
    """Both sides ran the same tasks to the same headline results.

    Wall seconds only compare like with like; a ``--smoke`` report set
    against a full-scale baseline shares no figure in this sense.
    """
    tasks, base_tasks = stats.get("tasks", {}), base.get("tasks", {})
    return (bool(tasks) and tasks.keys() == base_tasks.keys()
            and all(task.get("headline") == base_tasks[name].get("headline")
                    for name, task in tasks.items()))


def comparable_figures(report: dict, baseline: dict) -> list:
    base_figures = baseline.get("figures", {})
    return sorted(figure
                  for figure, stats in report.get("figures", {}).items()
                  if figure in base_figures
                  and same_work(stats, base_figures[figure]))


def compare(report: dict, baseline: dict, threshold: float) -> list:
    """[(figure, baseline wall s, new wall s, speed ratio), ...] regressions.

    The speed ratio is baseline wall / new wall; a figure regressed when
    it fell below ``1 - threshold``.
    """
    regressions = []
    for figure in comparable_figures(report, baseline):
        old = baseline["figures"][figure].get("wall_seconds")
        new = report["figures"][figure].get("wall_seconds")
        if not old or not new:
            continue
        if old / new < 1.0 - threshold:
            regressions.append((figure, old, new, old / new))
    return regressions


def check_scale(report: dict, min_publish_ops: float,
                min_frontend_speedup: float) -> list:
    """Soft floors for the control-plane scale section.

    Checks every swept point's best-case (smallest dirty count) publish
    throughput and the frontend's indexed-vs-linear speedup.  Returns
    GitHub-annotation warning strings.
    """
    warnings = []
    section = report.get("scale")
    if not section:
        return ["::warning title=scale gate::report has no `scale` section "
                "(run scripts/run_scale_bench.py)"]
    for point in section.get("points", []):
        shards = point.get("shards", 0)
        sweep = point.get("publish_sweep", [])
        if sweep:
            best = max(s.get("publishes_per_sec", 0.0) for s in sweep)
            if best < min_publish_ops:
                warnings.append(
                    f"::warning title=scale gate::{shards:,} shards: "
                    f"control-plane publish {best:,.0f} ops/s below floor "
                    f"{min_publish_ops:,.0f}")
        speedup = point.get("frontend_speedup_vs_linear", 0.0)
        if speedup < min_frontend_speedup:
            warnings.append(
                f"::warning title=scale gate::{shards:,} shards: frontend "
                f"speedup {speedup:,.1f}x below floor "
                f"{min_frontend_speedup:,.1f}x")
    return warnings


def check_fluid(report: dict, min_users_per_sec: float) -> list:
    """Soft floor for the hybrid fluid engine's headline throughput.

    Gates the ``fluid`` section's 10M-user scenario: simulated users per
    wall second must clear the floor, and the scenario must have finished
    under the event-mode fig18 wall measured in the same run.  Returns
    GitHub-annotation warning strings.
    """
    warnings = []
    section = report.get("fluid")
    if not section:
        return ["::warning title=fluid gate::report has no `fluid` section "
                "(run scripts/run_fluid_bench.py)"]
    scale = section.get("scale", {})
    users_per_sec = scale.get("users_per_sec", 0.0)
    if users_per_sec < min_users_per_sec:
        warnings.append(
            f"::warning title=fluid gate::{scale.get('users', 0):,} users: "
            f"{users_per_sec:,.0f} users/s below floor "
            f"{min_users_per_sec:,.0f}")
    if not scale.get("under_event_fig18_wall", False):
        warnings.append(
            f"::warning title=fluid gate::10M-user scenario took "
            f"{scale.get('wall_seconds', 0.0):.2f}s — not under the "
            f"event-mode fig18 wall "
            f"({section.get('fig18', {}).get('event_wall_seconds', 0.0):.2f}s)")
    return warnings


def check_fuzz(report: dict, min_specs_per_sec: float) -> list:
    """Soft floor for the chaos fuzzer's execution throughput.

    Gates the ``fuzz`` section: candidate scenarios executed per wall
    second must clear the floor (the whole search degenerates if a
    single run gets slow), and a search that found violations is
    surfaced here too — the fuzz job itself already failed in that
    case, this keeps the signal in the perf summary.  Returns
    GitHub-annotation warning strings.
    """
    warnings = []
    section = report.get("fuzz")
    if not section:
        return ["::warning title=fuzz gate::report has no `fuzz` section "
                "(run scripts/run_fuzz.py --output)"]
    specs_per_sec = section.get("specs_per_sec", 0.0)
    if specs_per_sec < min_specs_per_sec:
        warnings.append(
            f"::warning title=fuzz gate::"
            f"{section.get('specs_executed', 0)} specs at "
            f"{specs_per_sec:,.1f} specs/s below floor "
            f"{min_specs_per_sec:,.1f}")
    if section.get("violations_found", 0):
        warnings.append(
            f"::warning title=fuzz gate::search found "
            f"{section['violations_found']} invariant-violating "
            f"timeline(s) — see the fuzz job log")
    return warnings


def check_skew(report: dict, min_sm_advantage: float) -> list:
    """Soft floor for SM's win in the hot-key skew benchmark.

    Gates the ``skew`` section: the SM arm's P99 latency must beat the
    *better* of the two baseline arms (consistent hashing, static
    sharding) by at least ``min_sm_advantage`` (e.g. 1.5 = 50% lower
    P99), and its load imbalance must beat them at all (>= 1.0).  The
    section's hard properties (bit-identical same-seed digests, zero
    TraceChecker violations) already failed the bench script itself;
    they are re-surfaced here so one summary carries every signal.
    Returns GitHub-annotation warning strings.
    """
    warnings = []
    section = report.get("skew")
    if not section:
        return ["::warning title=skew gate::report has no `skew` section "
                "(run scripts/run_skew_bench.py)"]
    advantage = section.get("sm_p99_advantage", 0.0)
    if advantage < min_sm_advantage:
        warnings.append(
            f"::warning title=skew gate::SM p99 advantage {advantage:.2f}x "
            f"below floor {min_sm_advantage:.2f}x (best baseline p99 / "
            f"SM p99)")
    imbalance_advantage = section.get("sm_imbalance_advantage", 0.0)
    if imbalance_advantage < 1.0:
        warnings.append(
            f"::warning title=skew gate::SM load imbalance worse than a "
            f"baseline arm ({imbalance_advantage:.2f}x advantage)")
    if not section.get("deterministic", False):
        warnings.append("::warning title=skew gate::skew arms were not "
                        "digest-deterministic")
    for arm, stats in sorted(section.get("arms", {}).items()):
        if stats.get("violations", 0):
            warnings.append(
                f"::warning title=skew gate::arm `{arm}` had "
                f"{stats['violations']} TraceChecker violation(s)")
    return warnings


def main() -> int:
    parser = argparse.ArgumentParser(
        description="warn when figure wall time regressed vs the baseline")
    parser.add_argument("--report", default="BENCH_sim.json")
    parser.add_argument("--baseline", default="benchmarks/baseline_sim.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="warn when a figure's speed (baseline wall / "
                             "new wall) drops by more than this fraction "
                             "(default 0.15)")
    parser.add_argument("--hard", action="store_true",
                        help="exit non-zero on regression instead of warning")
    parser.add_argument("--obs-baseline", default=None,
                        help="frozen no-observability baseline: also gate "
                             "the report against it at --obs-threshold "
                             "(disabled-tracing overhead check)")
    parser.add_argument("--obs-threshold", type=float, default=0.02,
                        help="allowed speed drop vs --obs-baseline "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--scale-min-publish-ops", type=float, default=None,
                        help="also gate the report's `scale` section: floor "
                             "for best-case control-plane publish ops/s at "
                             "every swept shard count")
    parser.add_argument("--scale-min-frontend-speedup", type=float,
                        default=10.0,
                        help="floor for the frontend indexed-vs-linear "
                             "speedup (only with --scale-min-publish-ops)")
    parser.add_argument("--fluid-min-users-per-sec", type=float, default=None,
                        help="also gate the report's `fluid` section: floor "
                             "for the 10M-user scenario's simulated users "
                             "per wall second")
    parser.add_argument("--fuzz-min-specs-per-sec", type=float,
                        default=None,
                        help="also gate the report's `fuzz` section: floor "
                             "for candidate scenarios executed per wall "
                             "second")
    parser.add_argument("--skew-min-sm-advantage", type=float, default=None,
                        help="also gate the report's `skew` section: floor "
                             "for SM's P99 advantage over the better "
                             "baseline arm (e.g. 1.5 = 50%% lower P99)")
    args = parser.parse_args()

    report = json.loads(Path(args.report).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    regressions = compare(report, baseline, args.threshold)

    checked = comparable_figures(report, baseline)
    if not checked:
        print("perf gate: no figure ran the same tasks to the same "
              "headlines as the baseline; nothing to compare",
              file=sys.stderr)
        # Section-only reports (e.g. the fluid-smoke job's) still run the
        # section gates below.
        if args.scale_min_publish_ops is None \
                and args.fluid_min_users_per_sec is None \
                and args.fuzz_min_specs_per_sec is None \
                and args.skew_min_sm_advantage is None:
            return 0
    for figure, old, new, ratio in regressions:
        print(f"::warning title=perf regression::{figure}: "
              f"{new:.2f} s wall vs baseline {old:.2f} s "
              f"({ratio:.2f}x speed, threshold "
              f"{1.0 - args.threshold:.2f}x)")
    if checked and not regressions:
        print(f"perf gate: {len(checked)} figure(s) within "
              f"{args.threshold:.0%} of baseline speed "
              f"({', '.join(checked)})")

    obs_regressions = []
    if args.obs_baseline:
        obs_baseline = json.loads(Path(args.obs_baseline).read_text())
        obs_regressions = compare(report, obs_baseline, args.obs_threshold)
        for figure, old, new, ratio in obs_regressions:
            print(f"::warning title=tracing overhead::{figure}: "
                  f"{new:.2f} s wall vs no-obs baseline {old:.2f} s "
                  f"({ratio:.2f}x speed, threshold "
                  f"{1.0 - args.obs_threshold:.2f}x)")
        if not obs_regressions:
            obs_checked = comparable_figures(report, obs_baseline)
            print(f"tracing-overhead gate: {len(obs_checked)} comparable "
                  f"figure(s) within {args.obs_threshold:.0%} of the "
                  f"no-obs baseline")

    scale_warnings = []
    if args.scale_min_publish_ops is not None:
        scale_warnings = check_scale(report, args.scale_min_publish_ops,
                                     args.scale_min_frontend_speedup)
        for warning in scale_warnings:
            print(warning)
        if not scale_warnings:
            points = len(report.get("scale", {}).get("points", []))
            print(f"scale gate: {points} point(s) above "
                  f"{args.scale_min_publish_ops:,.0f} publish ops/s and "
                  f"{args.scale_min_frontend_speedup:,.1f}x frontend "
                  f"speedup")

    fluid_warnings = []
    if args.fluid_min_users_per_sec is not None:
        fluid_warnings = check_fluid(report, args.fluid_min_users_per_sec)
        for warning in fluid_warnings:
            print(warning)
        if not fluid_warnings:
            scale = report.get("fluid", {}).get("scale", {})
            print(f"fluid gate: {scale.get('users', 0):,} users at "
                  f"{scale.get('users_per_sec', 0.0):,.0f} users/s "
                  f"(floor {args.fluid_min_users_per_sec:,.0f}), "
                  f"under the event-mode fig18 wall")

    fuzz_warnings = []
    if args.fuzz_min_specs_per_sec is not None:
        fuzz_warnings = check_fuzz(report, args.fuzz_min_specs_per_sec)
        for warning in fuzz_warnings:
            print(warning)
        if not fuzz_warnings:
            section = report.get("fuzz", {})
            print(f"fuzz gate: {section.get('specs_executed', 0)} specs "
                  f"at {section.get('specs_per_sec', 0.0):,.1f} specs/s "
                  f"(floor {args.fuzz_min_specs_per_sec:,.1f}), "
                  f"{section.get('distinct_coverage_keys', 0)} coverage "
                  f"keys, no violations")

    skew_warnings = []
    if args.skew_min_sm_advantage is not None:
        skew_warnings = check_skew(report, args.skew_min_sm_advantage)
        for warning in skew_warnings:
            print(warning)
        if not skew_warnings:
            section = report.get("skew", {})
            print(f"skew gate: SM p99 advantage "
                  f"{section.get('sm_p99_advantage', 0.0):.2f}x over the "
                  f"best baseline (floor {args.skew_min_sm_advantage:.2f}x), "
                  f"imbalance advantage "
                  f"{section.get('sm_imbalance_advantage', 0.0):.2f}x, "
                  f"digests deterministic")

    if regressions or obs_regressions or scale_warnings \
            or fluid_warnings or fuzz_warnings or skew_warnings:
        return 1 if args.hard else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
