"""Smoke tests: every experiment runs end to end at a reduced size and
produces the qualitative shape its figure requires.  (The full-size runs
live in benchmarks/.)"""

import re
from pathlib import Path

import pytest

from repro.chaos import FIG20_BATCHES, FIG20_REACT
from repro.experiments import (
    fig17_availability,
    fig19_geo_failover,
    fig20_appshard_dbshard,
    fig21_solver_scale,
    fig22_solver_opt,
    fig23_continuous_lb,
    runner,
    skew_lb,
)


def test_fig17_smoke():
    result = fig17_availability.run(shards=300, servers=20,
                                    restart_duration=30.0,
                                    request_rate=20.0)
    assert result.sm.success_rate >= result.neither.success_rate
    assert result.sm.success_rate > 0.995
    assert result.neither.upgrade_duration <= result.sm.upgrade_duration
    assert "Figure 17" in fig17_availability.format_report(result)


def test_fig17_requests_follow_the_seed():
    """Each seed draws its own arrival and key stream."""
    sent = {seed: fig17_availability.run_arm(
        "sm", shards=300, servers=20, restart_duration=30.0,
        request_rate=20.0, seed=seed).requests_sent for seed in (0, 1)}
    assert sent[0] != sent[1]


def test_fig19_smoke():
    result = fig19_geo_failover.run(shards=100, ec_shards=40,
                                    servers_per_region=6,
                                    request_rate=10.0)
    assert result.outage_latency() > result.steady_latency() * 3
    assert "Figure 19" in fig19_geo_failover.format_report(result)


def test_fig20_smoke():
    result = fig20_appshard_dbshard.run()
    assert result.latency_at(320.0) > result.latency_at(250.0)
    assert result.latency_at(800.0) < result.latency_at(320.0)
    assert "Figure 20" in fig20_appshard_dbshard.format_report(result)


def test_fig20_moves_follow_each_preference_update():
    """The AppShard moves run on the figure's clock, as its latency and
    DB-move series do: each batch's eight land in the 60 s bucket that
    holds its preference update."""
    result = fig20_appshard_dbshard.run()
    assert list(result.app_shard_moves) == [
        ((at + FIG20_REACT) // 60.0 * 60.0 + 30.0, 8.0)
        for at in FIG20_BATCHES]


def test_fig20_row_of_experiments_md_is_the_run():
    """EXPERIMENTS.md's measured Fig 20 cells are this run's numbers."""
    text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
    section = text.split("## Figure 20")[1].split("\n## ")[0]
    cells = {row.split("|")[1].strip(): row.split("|")[3].strip()
             for row in section.splitlines() if row.count("|") == 4}
    result = fig20_appshard_dbshard.run()
    assert int(cells["batches of admin DBShard moves"]) == result.batches
    latency = result.latency
    assert [float(ms) for ms in re.findall(r"([\d.]+) ms", cells["latency"])
            ] == [round(ms, 2) for ms in (latency.values[0], latency.max(),
                                           latency.values[-1])]
    moves = int(cells["AppShard moves"].split()[0])
    assert moves == sum(value for _t, value in result.app_shard_moves)


def test_fig19_rows_of_experiments_md_are_bench_results():
    """EXPERIMENTS.md's measured Fig 19 cells quote the Figure 19 block
    of ``bench_results.txt`` (``make figures`` rewrites it): the three
    headline latencies, the spike (the series' peak) and the EC shards
    with an FRC replica before and after recovery."""
    root = Path(__file__).parents[2]
    block = (root / "bench_results.txt").read_text().split(
        "==[ Figure 19")[1].split("\n==[")[0].splitlines()
    headline = {key.strip(): value.split() for key, value in
                (line.split(":", 1) for line in block if " : " in line)}
    series = [float(line.split()[1]) for line in block
              if re.match(r"\d+\.\d+ ", line)]
    section = (root / "EXPERIMENTS.md").read_text().split(
        "## Figure 19")[1].split("\n## ")[0]
    cells = {row.split("|")[1].strip(): row.split("|")[3].strip()
             for row in section.splitlines() if row.count("|") == 4}
    quoted = {phase: re.match(r"\*\*([\d.]+) ms\*\*", cells[phase]).group(1)
              for phase in ("steady state", "at failure", "during outage",
                            "after recovery")}
    assert quoted == {
        "steady state": headline["steady-state latency"][0],
        "at failure": f"{max(series):.1f}",
        "during outage": headline["during-outage latency"][0],
        "after recovery": headline["post-recovery latency"][0]}
    ec_shards = " ".join(headline["EC shards w/ FRC replica"])
    assert re.findall(r"\*\*(\d+)\*\*",
                      cells["EC shards with an FRC replica"]) == \
        re.findall(r"\d+", ec_shards)


def test_fig21_smoke():
    result = fig21_solver_scale.run(factor=25)
    assert result.all_solved
    assert "Figure 21" in fig21_solver_scale.format_report(result)


def test_fig22_smoke():
    result = fig22_solver_opt.run(factor=25)
    assert result.optimized.solved
    if result.baseline.solved:
        assert result.baseline.moves >= result.optimized.moves
    assert "Figure 22" in fig22_solver_opt.format_report(result)


def test_fig23_smoke():
    result = fig23_continuous_lb.run(servers=15, shards=60, days=1.0)
    assert result.max_p99() < 1.0
    assert result.total_moves() >= 0
    assert "Figure 23" in fig23_continuous_lb.format_report(result)


def test_skew_lb_smoke():
    # The figure's cell, with a workload 180 s long instead of 600 s.
    sm = skew_lb.run_arm("sm", seed=5, duration=180.0)
    static = skew_lb.run_arm("static", seed=5, duration=180.0)
    # Both journals are pinned.  No library timeline polls server load
    # (``load_poll_interval``), so these two hold the load-poll loop.
    assert sm.digest == ("dca5142b10e5a2cb69bdd0a5a0d302e3"
                         "f2590e7e66ebe195ec01da7b3da9bc97")
    assert static.digest == ("20a1a8fdb82e5e0a4f3ac781dcdbdbf2"
                             "60176ee9379898443f00bf5b2d90a50b")
    # The solver reacts to the hot set (and its mid-run rotation); the
    # pinned arm cannot move at all in steady state.
    assert sm.moves > 0
    assert static.moves == 0
    assert sm.p99 < static.p99
    assert sm.imbalance < static.imbalance
    assert sm.violations == 0 and static.violations == 0
    report = skew_lb.format_report({"sm": sm, "static": static})
    assert "sm" in report and "static" in report


def test_runner_report_is_deterministic_per_seed():
    """The sweep report is headlines only: same seeds, same dict, with
    nothing in it that depends on the host or how long the run took."""
    tasks = [runner.select_task(runner.SMOKE_TASKS, "fig19"),
             runner.select_task(runner.SMOKE_TASKS, "fig17:sm")]
    first = runner.run_experiments(tasks, serial=True)
    assert first == runner.run_experiments(tasks, serial=True)
    assert set(first) == {"figures"}
    assert set(first["figures"]) == {"fig19", "fig17"}
    assert first["figures"]["fig17"]["sm"]["success_rate"] >= 0.999
