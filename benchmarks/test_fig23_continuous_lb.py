"""Figure 23 benchmark: continuous load balancing under diurnal load."""

from conftest import emit

from repro.experiments import fig23_continuous_lb as experiment


def test_fig23_continuous_lb():
    result = experiment.run()
    emit(experiment.format_report(result))

    # "LB consistently keeps the P99 CPU utilization under 80%."
    assert result.max_p99() <= 0.82

    # The load is genuinely diurnal: the average swings visibly.
    assert result.avg_cpu.max() - result.avg_cpu.min() > 0.15

    # Violations keep emerging (the allocator saw work to do), and the
    # balancer responded with shard moves.
    assert result.violation_buckets() >= 2
    assert result.total_moves() >= 5

    # Continuous optimization, not a one-shot fix: moves happen after the
    # first day too.
    late_moves = sum(v for t, v in result.shard_moves if t > 3_600.0)
    assert late_moves >= 1
