"""Figure 2 benchmark: SM machine adoption 2012-2021."""

from conftest import emit

from repro.experiments import fig02_adoption as experiment


def test_fig02_adoption():
    result = experiment.run()
    emit(experiment.format_report(result))
    # Paper anchors: crosses 100K machines mid-history, ends over ~1M.
    assert result.final_machines >= 900_000
    assert 2014 <= result.crossed_100k_year <= 2018
    # Growth is monotonic.
    machines = [m for _y, m in result.curve]
    assert machines == sorted(machines)
