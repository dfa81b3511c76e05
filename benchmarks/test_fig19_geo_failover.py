"""Figure 19 benchmark: cross-region failover and fail-back latency."""

from conftest import emit

from repro.experiments import fig19_geo_failover as experiment


def test_fig19_geo_failover():
    result = experiment.run()
    emit(experiment.format_report(result))

    steady = result.steady_latency()
    outage = result.outage_latency()
    recovered = result.phase_latency(experiment.RECOVERY_TIME + 70.0, 1e12)

    # Region preference honoured: every EC shard had an FRC replica, and
    # SM moved them back after the region recovered.
    assert result.ec_shards_with_frc_replica_before == 400
    assert result.ec_shards_with_frc_replica_after >= 380

    # Replicas spread across regions (fault tolerance).
    assert result.cross_region_spread_before >= 990

    # The latency story: local -> cross-region plateau -> local again.
    assert steady < 10.0
    assert outage > steady * 5
    assert recovered < outage / 3

    # Clients kept succeeding throughout (requests failed over).
    assert result.success_rate > 0.995
