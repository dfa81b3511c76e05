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
from tests.mutants import SKEW_LB_DURATION, SKEW_LB_SEED, load_pins, moved


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


ROOT = Path(__file__).parents[2]


def bench_block(figure):
    """The lines of ``bench_results.txt``'s block for ``figure`` (``make
    figures`` rewrites it), its title line first."""
    return (ROOT / "bench_results.txt").read_text().split(
        f"==[ {figure}")[1].split("\n==[")[0].splitlines()


def measured_cells(figure, column=2):
    """First cell -> ``column``-th cell of each body row of the table in
    EXPERIMENTS.md's ``figure`` section, in the table's order."""
    section = (ROOT / "EXPERIMENTS.md").read_text().split(
        f"## {figure}")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    return {cells[0]: cells[column] for cells in rows[2:]}


def test_fig20_row_of_experiments_md_is_the_run():
    """EXPERIMENTS.md's measured Fig 20 cells are this run's numbers."""
    cells = measured_cells("Figure 20")
    result = fig20_appshard_dbshard.run()
    assert int(cells["batches of admin DBShard moves"]) == result.batches
    latency = result.latency
    assert [float(ms) for ms in re.findall(r"([\d.]+) ms", cells["latency"])
            ] == [round(ms, 2) for ms in (latency.values[0], latency.max(),
                                           latency.values[-1])]
    moves = int(cells["AppShard moves"].split()[0])
    assert moves == sum(value for _t, value in result.app_shard_moves)


def test_fig17_rows_of_experiments_md_are_bench_results():
    """EXPERIMENTS.md's measured Fig 17 cells quote the Figure 17 block
    of ``bench_results.txt``: each arm's success and upgrade seconds, in
    the block's order, and SM's drops."""
    block = [re.match(r"(.+?) +([\d.]+) +(\d+) +(\d+) +\d+$", line).groups()
             for line in bench_block("Figure 17")[2:5]]
    success = measured_cells("Figure 17", 2)
    seconds = measured_cells("Figure 17", 4)
    assert len(success) == len(block) == 3
    for arm, (_name, rate, upgrade, _failed) in zip(success, block):
        assert re.match(r"\*\*([\d.]+)%\*\*", success[arm]).group(1) == \
            f"{float(rate) * 100:.2f}"
        assert seconds[arm].split()[0].replace(",", "") == upgrade
    sm = next(iter(success))
    assert re.search(r"\((\d+) drops", success[sm]).group(1) == block[0][3]


def test_fig19_rows_of_experiments_md_are_bench_results():
    """EXPERIMENTS.md's measured Fig 19 cells quote the Figure 19 block
    of ``bench_results.txt``: the three headline latencies, the spike
    (the series' peak) and the EC shards with an FRC replica before and
    after recovery."""
    block = bench_block("Figure 19")
    headline = {key.strip(): value.split() for key, value in
                (line.split(":", 1) for line in block if " : " in line)}
    series = [float(line.split()[1]) for line in block
              if re.match(r"\d+\.\d+ ", line)]
    cells = measured_cells("Figure 19")
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
    # The figure's cell, with a shorter workload.  Both journals are
    # pinned: no library timeline polls server load
    # (``load_poll_interval``), so these two hold the load-poll loop.
    sm, static = (skew_lb.run_arm(arm, seed=SKEW_LB_SEED,
                                  duration=SKEW_LB_DURATION)
                  for arm in ("sm", "static"))
    pins = load_pins()
    assert moved(sm.tracks, pins["skew_lb:sm"]) == []
    assert moved(static.tracks, pins["skew_lb:static"]) == []
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
