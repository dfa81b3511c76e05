"""The named chaos-scenario library.

Each entry is a :class:`~repro.chaos.scenario.ScenarioSpec` composing
the fault vocabulary into one storyline: single crashes, flapping
machines, crash storms, rack and region blackouts, network partitions,
ZooKeeper session churn, planned maintenance and upgrades racing
unplanned faults, and control-plane failovers.

Several scenarios are regression beds, each for one way overlapping
faults can go wrong:

* ``crash_overlaps_maintenance`` — a crash landing inside a maintenance
  window must not double-apply (whichever event ends first reviving the
  machine mid-way through the other).  The down-hold mechanism (one
  hold per cause) keeps the machine down until *both* release, which
  the mid-window and post-window probes assert.
* ``crash_burst_stop`` — stopping a crash injector mid-storm must not
  strand in-flight failures with no repair, leaving machines down
  forever; the fault-recovery invariant fails the run if any injected
  crash lacks its recovery record.
* ``zk_session_churn`` — session expiry + fast reconnect exercises the
  ephemeral-node lifecycle end to end (expire → delete → recreate under
  a new session).  The tight availability bound proves a reconnect
  faster than the failover grace never drops a shard.  Deploy itself
  covers implicit parents: the orchestrator's child watch on the
  servers root must fire for nodes ``create`` makes as side effects.
* ``compound_storm`` — an upgrade, two crash storms and a hot-shard
  kill overlapping on a small two-region fleet: the one timeline that
  reaches a crash deferred because its target is already down, a
  graceful migration aborted at the forward step (``sm.prepare_drop_shard``
  failed) and a router misroute.  It was distilled from a search over
  the action vocabulary, so the behaviour at seed 0 — not the
  storyline — is what it is kept for.

Every scenario must pass with **zero** violations under both arms
("sm" and "baseline"), so expectation bounds are set to what the
*baseline* arm achieves — the arms share an oracle, not a bar.
"""

from __future__ import annotations

from typing import Dict, List

from .scenario import Expectations, FaultAction, ScenarioSpec

__all__ = ["SCENARIOS", "all_scenarios", "get"]


def _act(at: float, kind: str, duration: float = 0.0,
         **params: object) -> FaultAction:
    return FaultAction(at=at, kind=kind, duration=duration,
                       params=tuple(sorted(params.items())))


_SPECS: List[ScenarioSpec] = [
    ScenarioSpec(
        name="crash_single",
        title="One machine crashes and is repaired",
        actions=(
            _act(30.0, "crash_machine", 40.0, region="FRC", index=0),
            _act(45.0, "probe", check="machine_down", region="FRC", index=0),
            _act(90.0, "probe", check="machine_up", region="FRC", index=0),
        ),
        duration=360.0,
        expectations=Expectations(availability_bound=180.0,
                                  failover_bound=120.0),
    ),
    ScenarioSpec(
        name="flapping_machine",
        title="The same machine crashes three times in a row",
        actions=(
            _act(30.0, "crash_machine", 20.0, region="FRC", index=1),
            _act(90.0, "crash_machine", 20.0, region="FRC", index=1),
            _act(150.0, "crash_machine", 20.0, region="FRC", index=1),
            _act(200.0, "probe", check="machine_up", region="FRC", index=1),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=240.0,
                                  failover_bound=120.0),
    ),
    ScenarioSpec(
        name="crash_overlaps_maintenance",
        title="A crash lands inside a planned maintenance window",
        actions=(
            # Notice at t=20 (60s lead) => window [80, 260].
            _act(20.0, "maintenance", 180.0, region="FRC", index=2,
                 notice=60.0, impact="RUNTIME_STATE_LOSS"),
            # Crash the same machine mid-window; chaos releases its hold
            # at t=170 but the maintenance hold keeps the machine down.
            _act(110.0, "crash_machine", 60.0, region="FRC", index=2),
            _act(180.0, "probe", check="machine_down", region="FRC", index=2),
            _act(270.0, "probe", check="machine_up", region="FRC", index=2),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=300.0),
    ),
    ScenarioSpec(
        name="maintenance_racing_upgrade",
        title="A rolling upgrade races a maintenance window",
        actions=(
            _act(20.0, "maintenance", 120.0, region="FRC", index=3,
                 notice=60.0, impact="RUNTIME_STATE_LOSS"),
            _act(50.0, "rolling_upgrade", region="FRC", concurrency=2,
                 restart_duration=30.0),
            _act(320.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=300.0),
    ),
    ScenarioSpec(
        name="crash_burst_stop",
        title="A crash storm over one region, stopped mid-flight",
        actions=(
            _act(30.0, "crash_burst", 180.0, region="PRN",
                 mtbf=40.0, repair=25.0),
            # Long tail after stop: every in-flight repair must land
            # (fault-recovery fails the run otherwise).
            _act(330.0, "probe", check="ready_fraction", min=0.8),
        ),
        duration=420.0,
        expectations=Expectations(final_ready_min=0.8),
    ),
    ScenarioSpec(
        name="rack_blackout",
        title="Every app machine sharing a rack goes dark at once",
        actions=(
            _act(40.0, "crash_rack", 80.0, region="FRC", index=0),
            _act(60.0, "probe", check="machine_down", region="FRC", index=0),
            _act(140.0, "probe", check="machine_up", region="FRC", index=0),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=240.0,
                                  failover_bound=180.0),
    ),
    ScenarioSpec(
        name="region_outage_failback",
        title="A whole region crashes, then comes back",
        actions=(
            _act(40.0, "crash_region", 150.0, region="PRN"),
            _act(230.0, "probe", check="machine_up", region="PRN", index=0),
            _act(380.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=480.0,
        expectations=Expectations(availability_bound=240.0,
                                  failover_bound=120.0, final_ready_min=0.9),
    ),
    ScenarioSpec(
        name="partition_during_upgrade",
        title="A cross-region partition opens mid-rolling-upgrade",
        actions=(
            _act(30.0, "rolling_upgrade", region="FRC", concurrency=2,
                 restart_duration=30.0),
            _act(60.0, "partition_pair", 90.0, a="FRC", b="PRN"),
            _act(300.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=300.0),
    ),
    ScenarioSpec(
        name="zk_session_churn",
        title="ZooKeeper sessions expire and reconnect under the grace",
        actions=(
            _act(40.0, "zk_expire", region="FRC", reconnect_after=5.0),
            _act(80.0, "zk_expire", region="PRN", reconnect_after=5.0),
            _act(120.0, "zk_expire", region="FRC", reconnect_after=5.0),
            # Reconnect (5s) beats session timeout (10s) + grace (30s):
            # the orchestrator must never drop a replica.
            _act(170.0, "probe", check="server_alive", region="FRC",
                 min_servers=4),
            _act(170.0, "probe", check="ready_fraction", min=0.95),
        ),
        duration=360.0,
        expectations=Expectations(availability_bound=60.0,
                                  failover_bound=60.0),
    ),
    ScenarioSpec(
        name="partition_isolates_region",
        title="A region is cut off and its sessions expire",
        actions=(
            _act(40.0, "isolate_region", 100.0, region="ODN"),
            # Sessions die during the partition; servers reconnect only
            # after it heals (t=140) — replicas must fail over meanwhile.
            _act(45.0, "zk_expire", region="ODN", reconnect_after=110.0),
            _act(330.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=480.0,
        expectations=Expectations(availability_bound=240.0,
                                  failover_bound=120.0, final_ready_min=0.9),
    ),
    ScenarioSpec(
        name="hot_shard_kill",
        title="The machine hosting the hottest shard dies under Zipf load",
        actions=(
            # Resolved at fire time: whichever machine hosts the shard
            # covering key 0 (rank 0 of the Zipf workload) goes down.
            _act(60.0, "crash_hot_shard", 50.0, key=0),
            _act(200.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=360.0,
        zipf_skew=1.4,
        expectations=Expectations(availability_bound=180.0,
                                  failover_bound=120.0),
    ),
    ScenarioSpec(
        name="orchestrator_failover",
        title="The control plane dies and its successor takes over",
        actions=(
            _act(60.0, "orchestrator_failover"),
            _act(120.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=360.0,
        expectations=Expectations(availability_bound=60.0),
    ),
    ScenarioSpec(
        name="failover_under_partition",
        title="Control-plane failover while a region is isolated",
        actions=(
            _act(30.0, "isolate_region", 120.0, region="ODN"),
            _act(70.0, "orchestrator_failover"),
            _act(300.0, "probe", check="ready_fraction", min=0.85),
        ),
        duration=480.0,
        expectations=Expectations(availability_bound=300.0,
                                  final_ready_min=0.85),
    ),
    ScenarioSpec(
        name="upgrade_with_orchestrator_failover",
        title="Control-plane failover in the middle of a rolling upgrade",
        actions=(
            _act(30.0, "rolling_upgrade", region="FRC", concurrency=2,
                 restart_duration=30.0),
            _act(55.0, "orchestrator_failover"),
            _act(320.0, "probe", check="ready_fraction", min=0.9),
        ),
        duration=420.0,
        expectations=Expectations(availability_bound=300.0),
    ),
    ScenarioSpec(
        name="compound_storm",
        title="A rolling upgrade races two crash storms and a hot-shard kill",
        actions=(
            _act(0.0, "rolling_upgrade", concurrency=3),
            _act(30.0, "crash_burst", mtbf=35.0, repair=14.5),
            _act(120.0, "crash_burst", 149.5, repair=29.5),
            _act(220.0, "crash_hot_shard"),
        ),
        duration=300.0,
        regions=("FRC", "PRN"),
        machines_per_region=5,
        servers_per_region=3,
        shards=8,
        request_rate=2.0,
        settle=40.0,
        expectations=Expectations(availability_bound=30.0,
                                  failover_bound=60.0, final_ready_min=0.9),
    ),
]

SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec for spec in _SPECS}


def all_scenarios() -> List[ScenarioSpec]:
    """Every library scenario, in curriculum order."""
    return list(_SPECS)


def get(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
