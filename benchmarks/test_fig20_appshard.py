"""Figure 20 benchmark: AppShards follow DBShards across regions."""

from conftest import emit

from repro.experiments import fig20_appshard_dbshard as experiment


def test_fig20_appshard_follows_dbshard():
    result = experiment.run()
    emit(experiment.format_report(result))

    # Steady-state co-location keeps pair latency local.
    assert result.latency_at(250.0) < 5.0
    # Each admin DBShard batch causes a latency spike...
    assert result.latency_at(320.0) > 10.0
    assert result.latency_at(920.0) > 10.0
    # ... and SM's preference-driven migration restores locality.
    assert result.latency_at(800.0) < 5.0
    assert result.latency_at(1_450.0) < 5.0
    # SM moved (at least) the impacted AppShards in both batches.
    total_moves = sum(int(v) for _t, v in result.app_shard_moves)
    assert total_moves >= 16
