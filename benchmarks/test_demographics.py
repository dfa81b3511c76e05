"""Figures 4-9 benchmark: demographics of sharded applications."""

from conftest import emit

from repro.experiments import demographics as experiment
from repro.workloads.fleet import (
    GEO_DISTRIBUTED_BY_APP,
    SHARDING_SCHEME_BY_APP,
)


def test_figs_4_to_9_demographics():
    result = experiment.run()
    emit(experiment.format_report(result))
    # The sampled population converges to the published marginals.
    assert result.worst_error() < 0.05
    # Spot-check the headline numbers.
    assert abs(result.scheme.by_app["sm"]
               - SHARDING_SCHEME_BY_APP["sm"]) < 0.04
    assert abs(result.deployment.by_app["geo_distributed"]
               - GEO_DISTRIBUTED_BY_APP) < 0.04
    # Fig 4 by-server shape: custom sharding is 1% of apps but a huge
    # server share; Fig 9: storage share by server exceeds by app.
    assert result.scheme.by_server["custom"] > 0.10
    assert (result.storage.by_server["storage"]
            > result.storage.by_app["storage"])
    # Fig 7 by-server shape: multi-metric LB dominates server usage.
    assert (result.lb_policy.by_server["multi_metric"]
            > result.lb_policy.by_app["multi_metric"])
