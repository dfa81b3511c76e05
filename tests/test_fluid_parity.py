"""Fluid/event parity: both traffic modes agree on the headline physics.

Runs Figure 17 and Figure 18 at small scale under the per-request event
path and the hybrid fluid engine, then asserts the headline metrics
agree within documented tolerances.  The two modes are not bit-identical
by construction — the event path samples per-request RNG the fluid path
never draws, so control-plane timing differs slightly — but availability,
upgrade behaviour and migration counts must line up:

* per-arm success rate within 0.02 absolute (fig17) / error rate within
  0.01 absolute (fig18) — the figures' y-axes;
* upgrade durations within 25% (driven by the same TaskController
  negotiation, unaffected by traffic mode);
* shard moves within 20% (same orchestrator, same drain plans);
* fig18 runs the same number of upgrades in both modes.

These tolerances are the CI-enforced contract for the hybrid engine
(ISSUE: parity gate); loosening them requires a documented reason in
DESIGN.md's "Hybrid traffic model" section.
"""

import pytest

from repro.experiments import fig17_availability as fig17
from repro.experiments import fig18_production_upgrades as fig18

#: Documented tolerances (see module docstring / DESIGN.md).
FIG17_SUCCESS_ABS = 0.02
FIG18_ERROR_ABS = 0.01
UPGRADE_DURATION_REL = 0.25
SHARD_MOVES_REL = 0.20


@pytest.fixture(scope="module")
def fig17_pair():
    kwargs = dict(shards=200, servers=12, restart_duration=30.0,
                  request_rate=40.0, seed=5)
    return (fig17.run(traffic="event", **kwargs),
            fig17.run(traffic="fluid", **kwargs))


@pytest.fixture(scope="module")
def fig18_pair():
    kwargs = dict(shards=120, servers=10, day_length=1_200.0, days=1, seed=3)
    return (fig18.run(traffic="event", **kwargs),
            fig18.run(traffic="fluid", **kwargs))


def test_fig17_success_rates_agree(fig17_pair):
    event, fluid = fig17_pair
    for name in event.arms:
        ev, fl = event.arms[name], fluid.arms[name]
        assert fl.success_rate == pytest.approx(
            ev.success_rate, abs=FIG17_SUCCESS_ABS), name


def test_fig17_arm_ordering_preserved(fig17_pair):
    """The figure's qualitative story survives the mode switch: SM keeps
    availability highest, the blind-restart arm loses the most."""
    for result in fig17_pair:
        assert result.sm.success_rate >= result.no_graceful.success_rate
        assert (result.no_graceful.success_rate
                >= result.neither.success_rate)
        assert result.sm.success_rate > 0.999
        assert result.neither.success_rate < 0.99


def test_fig17_upgrade_durations_agree(fig17_pair):
    event, fluid = fig17_pair
    for name in event.arms:
        ev, fl = event.arms[name], fluid.arms[name]
        assert fl.upgrade_duration == pytest.approx(
            ev.upgrade_duration, rel=UPGRADE_DURATION_REL), name


def test_fig17_shard_moves_agree(fig17_pair):
    event, fluid = fig17_pair
    for name in event.arms:
        ev, fl = event.arms[name], fluid.arms[name]
        if ev.shard_moves == 0:
            assert fl.shard_moves == 0, name
        else:
            assert fl.shard_moves == pytest.approx(
                ev.shard_moves, rel=SHARD_MOVES_REL), name


def test_fig18_error_rates_agree(fig18_pair):
    event, fluid = fig18_pair
    assert fluid.overall_error_rate == pytest.approx(
        event.overall_error_rate, abs=FIG18_ERROR_ABS)
    assert fluid.max_error_rate() == pytest.approx(
        event.max_error_rate(), abs=5 * FIG18_ERROR_ABS)


def test_fig18_upgrades_and_moves_agree(fig18_pair):
    event, fluid = fig18_pair
    assert fluid.upgrades_run == event.upgrades_run
    if event.peak_moves() == 0:
        assert fluid.peak_moves() == 0
    else:
        assert fluid.peak_moves() == pytest.approx(
            event.peak_moves(), rel=SHARD_MOVES_REL)


def test_fig18_diurnal_shape_survives(fig18_pair):
    """Request-rate curves from both modes show the same diurnal swing."""
    for result in fig18_pair:
        values = list(result.request_rate.values)
        assert max(values) > 2.0 * min(v for v in values if v > 0)
