"""Smoke tests: every experiment runs end to end at a reduced size and
produces the qualitative shape its figure requires.  (The full-size runs
live in benchmarks/.)"""

import pytest

from repro.experiments import (
    adevents_capacity,
    demographics,
    fig01_planned_events,
    fig02_adoption,
    fig17_availability,
    fig19_geo_failover,
    fig20_appshard_dbshard,
    fig21_solver_scale,
    fig22_solver_opt,
    fig23_continuous_lb,
    runner,
    scale,
    skew_lb,
)


def test_adevents_capacity_smoke():
    result = adevents_capacity.run(regions=4, shards=500)
    assert 0.0 < result.saving < 1.0
    # More regions -> smaller outage-headroom factor (1 + 1/(R-1)); at
    # small server counts per-region ceil rounding can still dominate, so
    # compare the savings, which fold the rounding in, loosely.
    wider = adevents_capacity.run(regions=8, shards=5_000)
    narrower = adevents_capacity.run(regions=3, shards=5_000)
    assert wider.saving >= narrower.saving
    assert "AdEvents" in adevents_capacity.format_report(result)


def test_fig01_smoke():
    result = fig01_planned_events.run(machines=40, jobs=2, days=15.0)
    assert result.planned_stops > 50 * result.unplanned_stops
    report = fig01_planned_events.format_report(result)
    assert "planned" in report


def test_fig02_smoke():
    result = fig02_adoption.run(app_count=100)
    assert result.final_machines > 900_000
    assert "machines" in fig02_adoption.format_report(result)


def test_demographics_smoke():
    result = demographics.run(app_count=800, seed=1)
    assert result.worst_error() < 0.12  # loose at this sample size
    assert "Figure 4" in demographics.format_report(result)


def test_scale_smoke():
    result = scale.run(app_count=200, seed=1)
    assert result.mini_sm_count >= 2
    assert result.app_scatter
    assert "mini-SM" in scale.format_report(result)


def test_fig17_smoke():
    result = fig17_availability.run(shards=300, servers=20,
                                    restart_duration=30.0,
                                    request_rate=20.0)
    assert result.sm.success_rate >= result.neither.success_rate
    assert result.sm.success_rate > 0.995
    assert result.neither.upgrade_duration <= result.sm.upgrade_duration
    assert "Figure 17" in fig17_availability.format_report(result)


def test_fig19_smoke():
    result = fig19_geo_failover.run(shards=100, ec_shards=40,
                                    servers_per_region=6,
                                    request_rate=10.0)
    assert result.outage_latency() > result.steady_latency() * 3
    assert "Figure 19" in fig19_geo_failover.format_report(result)


def test_fig20_smoke():
    result = fig20_appshard_dbshard.run(shard_count=12, batch_size=4,
                                        batch_times=(200.0,),
                                        horizon=600.0)
    assert result.latency_at(230.0) > result.latency_at(150.0)
    assert result.latency_at(550.0) < result.latency_at(230.0)
    assert "Figure 20" in fig20_appshard_dbshard.format_report(result)


def test_fig21_smoke():
    result = fig21_solver_scale.run(factor=25, time_budget=60.0)
    assert result.all_solved
    assert "Figure 21" in fig21_solver_scale.format_report(result)


def test_fig22_smoke():
    result = fig22_solver_opt.run(factor=25, time_budget=10.0)
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
    params = skew_lb.SkewParams(servers=4, shards=16, duration=120.0,
                                settle=30.0, warmup=20.0, request_rate=40.0,
                                scatter_rate=3.0, service_time=0.04)
    sm = skew_lb.run_arm("sm", params, seed=5)
    static = skew_lb.run_arm("static", params, seed=5)
    again = skew_lb.run_arm("static", params, seed=5)
    # Determinism: same seed, same arm -> bit-identical journals.
    assert static.digest == again.digest
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
    tasks = [runner.select_task(runner.SMOKE_TASKS, "fig01"),
             runner.select_task(runner.SMOKE_TASKS, "fig17:sm")]
    first = runner.run_experiments(tasks, serial=True)
    assert first == runner.run_experiments(tasks, serial=True)
    assert set(first) == {"figures"}
    assert set(first["figures"]) == {"fig01", "fig17"}
    assert first["figures"]["fig17"]["sm"]["success_rate"] >= 0.999
