"""Figure 18 benchmark: flat error rate through daily staged upgrades."""

from conftest import emit

from repro.experiments import fig18_production_upgrades as experiment


def test_fig18_production_upgrades():
    result = experiment.run()
    emit(experiment.format_report(result))
    # Two canary + two full upgrades ran.
    assert result.upgrades_run == 4
    # Shard-move spikes exist (the upgrades drained shards)...
    assert result.peak_moves() >= 20
    # ... while the client error rate "hardly changes".
    assert result.overall_error_rate < 0.001
    assert result.max_error_rate() < 0.01
    # The request-rate curve is diurnal: max/min ratio well above 1.
    assert result.request_rate.max() / max(1.0, result.request_rate.min()) > 2.0
    # The queue service delivered strictly in order throughout.
    assert result.order_violations == 0
