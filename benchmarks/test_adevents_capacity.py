"""§2.5 benchmark: AdEvents' 67% machine saving from going geo on SM."""

from conftest import emit

from repro.experiments import adevents_capacity as experiment


def test_adevents_capacity_saving():
    result = experiment.run()
    emit(experiment.format_report(result))
    # Paper: "SM helped reduce their machine usage by 67%."
    assert 0.55 <= result.saving <= 0.80
    # The geo plan still survives a whole-region outage: remaining
    # regions' capacity covers the full load at target utilization.
    remaining = (result.geo.total_servers
                 - result.geo.servers_per_region)
    assert remaining >= result.balanced_servers
