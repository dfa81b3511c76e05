"""Figure 1 benchmark: planned vs unplanned container stops."""

from conftest import emit

from repro.experiments import fig01_planned_events as experiment


def test_fig01_planned_events():
    result = experiment.run()
    emit(experiment.format_report(result))
    # Paper shape: planned events are ~3 orders of magnitude more frequent.
    assert result.planned_stops > 0
    assert result.ratio >= 100.0
    assert result.ratio <= 100_000.0
