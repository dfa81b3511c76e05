"""Fluid scale: 10M users over a follow-the-sun diurnal day (§8 scale).

The simulated headline only — availability through six staged upgrades,
latency, utilisation, and how many flows each map update repriced.
"""

import pytest
from conftest import emit

from repro.experiments import fluid_scale as experiment


def test_fluid_scale():
    result = experiment.run()
    emit(experiment.format_report(result))

    # Arrival integration is exact: users x mean rate x simulated time.
    assert result.arrivals == pytest.approx(
        result.users * experiment.RATE_PER_USER * result.sim_seconds,
        rel=1e-6)
    # Two days x three regions of staged upgrades, none of them visible
    # to clients (graceful drains; Fig 18's flat error rate at scale).
    assert result.upgrades_run == 6
    assert result.shard_moves >= result.shards
    assert result.availability >= 0.9999
    # Sized for ~70% at the regional peak; upgrades must not overload.
    assert 0.2 <= result.max_utilization < 0.85
    assert result.mean_latency_ms < result.p99_latency_ms < 500.0
    # One flow per (shard, client region); map churn reaches them as
    # deltas that reprice only the changed flows.
    assert result.flows == result.shards * result.regions
    assert result.delta_reprices > 0
