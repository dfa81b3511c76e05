"""Chaos engine tests: scenario determinism, the fault oracle, injector
overlap semantics, Twine down-holds, and maintenance accounting."""

import json
import random
from pathlib import Path

import pytest

from repro.chaos import (
    ACTIONS,
    ARMS,
    SCENARIOS,
    FaultAction,
    ScenarioRun,
    ScenarioSpec,
    all_scenarios,
    get,
    run_scenario,
)
from repro.chaos.scenario import outage_bound
from repro.cluster.taskcontrol import MaintenanceImpact, OpKind, OpReason
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine
from repro.core.orchestrator import EMERGENCY_CHECK_INTERVAL
from repro.core.spec import ReplicationStrategy
from repro.obs import NO_OBS, Observability, use
from repro.obs.checker import TraceChecker
from repro.obs.tracer import Journal, Tracer
from repro.sim.engine import Engine
from repro.sim.failures import CrashInjector
from repro.sim.network import Network


def make_twine(machines=10, region="FRC"):
    engine = Engine()
    topology = build_topology([region], machines_per_region=machines)
    return engine, Twine(engine, region, topology.machines)


def small_spec(actions, **overrides):
    settings = dict(name="inline", title="inline test scenario",
                    actions=tuple(actions), duration=150.0,
                    regions=("FRC", "PRN"), machines_per_region=5,
                    servers_per_region=3, shards=8, request_rate=2.0,
                    settle=40.0)
    settings.update(overrides)
    return ScenarioSpec(**settings)


def act(at, kind, duration=0.0, **params):
    return FaultAction(at=at, kind=kind, duration=duration,
                       params=tuple(sorted(params.items())))


class TestScenarioEngine:
    def test_same_seed_bit_identical_digest(self):
        spec = small_spec([act(20.0, "crash_machine", 30.0,
                               region="FRC", index=0)])
        first = run_scenario(spec, arm="sm", seed=7)
        second = run_scenario(spec, arm="sm", seed=7)
        assert first.digest == second.digest
        assert first.records == second.records

    def test_seed_changes_digest(self):
        spec = small_spec([act(20.0, "crash_machine", 30.0,
                               region="FRC", index=0)])
        assert (run_scenario(spec, arm="sm", seed=7).digest
                != run_scenario(spec, arm="sm", seed=8).digest)

    def test_arms_diverge(self):
        spec = small_spec([act(20.0, "crash_machine", 30.0,
                               region="FRC", index=0)])
        assert (run_scenario(spec, arm="sm", seed=7).digest
                != run_scenario(spec, arm="baseline", seed=7).digest)

    def test_faults_paired_and_clean(self):
        spec = small_spec(
            [act(20.0, "crash_machine", 30.0, region="FRC", index=0)])
        result = run_scenario(spec, arm="sm", seed=3)
        assert not result.violations and not result.dropped, result.violations
        assert result.faults == result.recovers == 1

    def test_failed_probe_fails_the_run(self):
        spec = small_spec([act(30.0, "probe", check="machine_down",
                               region="FRC", index=0)])  # nothing crashed
        result = run_scenario(spec, arm="sm", seed=3)
        assert any(v["invariant"] == "fault-recovery"
                   for v in result.violations)

    def test_truncated_journal_fails_the_run(self):
        spec = small_spec([act(20.0, "crash_machine", 30.0,
                               region="FRC", index=0)])
        full = run_scenario(spec, arm="sm", seed=3)
        assert not full.violations and full.headline()["dropped"] == 0
        clipped = run_scenario(spec, arm="sm", seed=3, capacity=64)
        assert clipped.records == full.records
        assert clipped.dropped == full.records - 64
        assert clipped.headline()["dropped"] == clipped.dropped > 0

    def test_unknown_arm_rejected(self):
        spec = small_spec([])
        with pytest.raises(KeyError):
            run_scenario(spec, arm="nope", seed=0)

    def test_unknown_action_kind_rejected(self):
        spec = small_spec([act(10.0, "meteor_strike")])
        with pytest.raises(KeyError):
            run_scenario(spec, arm="sm", seed=0)


class TestCanaryRestart:
    """``canary_restart`` submits one negotiable upgrade restart for each
    of the first tenth (at least one) of a region's running containers,
    and journals how many it submitted."""

    def canary(self, monkeypatch, servers, region_down=False):
        obs = Observability()
        run = ScenarioRun(small_spec([], servers_per_region=servers,
                                     machines_per_region=servers + 2),
                          "sm", 0, obs)
        twine = run.cluster.twines["FRC"]
        if region_down:
            for container in run.app_containers("FRC"):
                twine.fail_machine(container.machine.machine_id)
        submitted = []
        monkeypatch.setattr(
            twine, "submit_op", lambda kind, container, reason:
            submitted.append((kind, container.container_id, reason)))
        ACTIONS["canary_restart"](run, act(0.0, "canary_restart",
                                           region="FRC"))
        planned = [r.args for r in obs.journal
                   if r.track == "chaos" and r.name == "planned"]
        return run, submitted, planned

    @pytest.mark.parametrize("servers, count", [(3, 1), (20, 2)])
    def test_restarts_the_first_tenth(self, monkeypatch, servers, count):
        run, submitted, planned = self.canary(monkeypatch, servers)
        first = [c.container_id for c in run.app_containers("FRC")][:count]
        assert submitted == [(OpKind.RESTART, container_id, OpReason.UPGRADE)
                             for container_id in first]
        assert planned == [{"kind": "canary_restart", "target": "FRC",
                            "count": count}]

    def test_a_region_with_nothing_running_restarts_nothing(self,
                                                            monkeypatch):
        _run, submitted, planned = self.canary(monkeypatch, 3,
                                               region_down=True)
        assert submitted == []
        assert planned == [{"kind": "canary_restart", "target": "FRC",
                            "count": 0}]


class TestPreferRegion:
    def test_the_orchestrator_reads_the_new_preference(self):
        """``prefer_region`` swaps in a new shard list, so the index
        ``AppSpec.shard`` keys to the old list (what a drain reads for
        its target) cannot serve the old preference."""
        obs = Observability()
        run = ScenarioRun(small_spec([], preferred_regions=("FRC",) * 8),
                          "sm", 0, obs)
        spec = run.app.orchestrator.spec
        assert spec.shard("shard3").preferred_region == "FRC"   # warm it
        ACTIONS["prefer_region"](run, act(0.0, "prefer_region", shard=3,
                                          region="PRN"))
        assert spec.shard("shard3").preferred_region == "PRN"
        assert spec.shard("shard3") is spec.shards[3]
        assert spec.shard("shard2").preferred_region == "FRC"
        planned = [r.args for r in obs.journal
                   if r.track == "chaos" and r.name == "planned"]
        assert planned == [{"kind": "prefer_region", "target": "shard3",
                            "region": "PRN"}]


class TestScenarioLibrary:
    def test_at_least_twelve_scenarios(self):
        assert len(SCENARIOS) >= 12

    def test_every_action_kind_registered(self):
        for spec in all_scenarios():
            for action in spec.actions:
                assert action.kind in ACTIONS, (spec.name, action.kind)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("not_a_scenario")

    def test_crash_overlaps_maintenance_regression(self):
        """A crash inside a maintenance window must not double-apply:
        the machine stays down until BOTH the chaos hold and the window
        release it (asserted by the scenario's own probes)."""
        result = run_scenario(get("crash_overlaps_maintenance"),
                              arm="sm", seed=11)
        assert not result.violations and not result.dropped, result.violations

    def test_crash_burst_stop_regression(self):
        """Stopping the injector mid-storm must not strand any machine:
        every injected crash needs its recovery record."""
        result = run_scenario(get("crash_burst_stop"), arm="sm", seed=11)
        assert not result.violations and not result.dropped, result.violations
        assert result.faults > 0
        assert result.faults == result.recovers

    def test_zk_session_churn_regression(self):
        """Session expiry with a reconnect faster than the failover
        grace must never drop a shard (tight availability bound)."""
        result = run_scenario(get("zk_session_churn"), arm="sm", seed=11)
        assert not result.violations and not result.dropped, result.violations


LIBRARY_DIGESTS = (Path(__file__).parent / "fixtures"
                   / "chaos_library_digests.json")


def write_library_digests():
    """Re-pin: scenario -> arm -> ``behaviour_digest`` of every library
    run at seed 0, written to ``chaos_library_digests.json``."""
    digests = {spec.name: {arm: run_scenario(spec, arm=arm, seed=0)
                           .behaviour_digest for arm in ARMS}
               for spec in all_scenarios()}
    LIBRARY_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                               + "\n")


@pytest.mark.parametrize("name, arm", [(spec.name, arm)
                                       for spec in all_scenarios()
                                       for arm in ARMS])
def test_library_run_is_clean_and_pinned(name, arm):
    """Every library scenario in both arms at seed 0 runs clean and is
    held to its ``behaviour_digest`` (the journal minus the engine track
    and record positions, so only a change in what the simulated system
    does moves it).  These are the runs ``tests/mutants.py`` seeds bugs
    into; its pin column counts the ones a mutant moves.  After an
    intentional behaviour change, regenerate the fixture with::

        PYTHONPATH=src python -c \\
            "import tests.test_chaos as t; t.write_library_digests()"

    and say in the commit which runs moved and why."""
    result = run_scenario(get(name), arm=arm, seed=0)
    assert not result.violations and not result.dropped, result.violations
    pinned = json.loads(LIBRARY_DIGESTS.read_text())
    assert set(pinned) == set(SCENARIOS)
    assert result.behaviour_digest == pinned[name][arm]


def _library_run(spec, obs):
    """One library timeline in the ``sm`` arm at seed 0, driven as
    :func:`run_scenario` drives it, under ``obs``."""
    with use(obs):
        run = ScenarioRun(spec, "sm", 0, obs)
        run.start()
        run.cluster.run(until=run.t0 + spec.duration)
        run.finish()
    app = run.app
    # The uptime the outage pass reads ends where the runtime does.
    assert ({address for address, times in run.uptime.items()
             if len(times) % 2} == set(app.runtime.servers))
    return (run.engine.processed_events,
            run.cluster.network.rpcs_sent, run.cluster.network.rpcs_failed,
            run.recorder.sent, run.recorder.failed,
            tuple(run.recorder.latency),
            app.orchestrator.move_counter.total,
            app.orchestrator.table.last_version,
            run.cluster.discovery.latest(app.spec.name),
            app.ready_fraction())


@pytest.mark.parametrize("name", [spec.name for spec in all_scenarios()])
def test_library_run_untraced_matches_traced(name):
    """Tracing changes nothing the simulated system does: each library
    timeline runs once under ``NO_OBS`` and once traced, and the two
    agree on events, RPCs, requests (each latency to the bit), moves and
    the final published map.  The traced run is held to its library pin,
    so the untraced path is pinned through it.  Each run's recorded live
    servers must end as the runtime's: fails against an uptime record
    that misses a restart (14 of the 19 timelines)."""
    spec = get(name)
    traced = Observability()
    assert _library_run(spec, NO_OBS) == _library_run(spec, traced)
    pinned = json.loads(LIBRARY_DIGESTS.read_text())
    assert traced.journal.behaviour_digest() == pinned[name]["sm"]


def test_a_library_run_samples_each_settled_rpc_and_journals_each_failure(
        monkeypatch):
    """The network's share of a traced run: ``net.rpc_latency_ms`` holds
    one sample per settled RPC and the ``net`` track one instant per
    failed one, naming its method, ends, send time and error."""
    calls = []
    rpc = Network.rpc

    def watched(network, *args, **kwargs):
        calls.append(rpc(network, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(Network, "rpc", watched)
    obs = Observability()
    rpcs_failed = _library_run(get("crash_single"), obs)[2]
    settled = [call for call in calls if call.result is not None]
    failed = [call for call in settled if not call.result.ok]
    assert obs.rpc_latency_ms()["total"] == len(settled) > 0
    assert obs.rpc_latency_ms()["sum"] == pytest.approx(
        sum(call.result.latency for call in settled) * 1e3)
    _seq, kinds, tracks, names, _time, _span, args = obs.journal.columns()
    journalled = sorted((kind, name, values["src"], values["dst"],
                         values["sent"], values["error"])
                        for kind, track, name, values
                        in zip(kinds, tracks, names, args) if track == "net")
    assert len(journalled) == rpcs_failed == len(failed) > 0
    assert journalled == sorted(
        ("I", call.method, call.src.address, call.dst.address, call.start,
         call.result.error) for call in failed)


class TestFaultRecoveryChecker:
    def make(self):
        journal = Journal()
        return Tracer(journal), journal

    def test_paired_fault_passes(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "fault", 1.0,
                       {"fault": "f1", "kind": "crash", "target": "m0"})
        tracer.instant("chaos", "recover", 5.0,
                       {"fault": "f1", "kind": "crash", "target": "m0"})
        assert TraceChecker(journal).check_fault_recovery() == []

    def test_unrecovered_fault_flagged(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "fault", 1.0,
                       {"fault": "f1", "kind": "crash", "target": "m0"})
        violations = TraceChecker(journal).check_fault_recovery()
        assert [v.invariant for v in violations] == ["fault-recovery"]

    def test_orphan_recover_flagged(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "recover", 5.0,
                       {"fault": "ghost", "kind": "crash", "target": "m0"})
        violations = TraceChecker(journal).check_fault_recovery()
        assert len(violations) == 1

    def test_duplicate_fault_id_flagged(self):
        tracer, journal = self.make()
        for _ in range(2):
            tracer.instant("chaos", "fault", 1.0,
                           {"fault": "f1", "kind": "crash", "target": "m0"})
        violations = TraceChecker(journal).check_fault_recovery()
        assert any("twice" in v.message for v in violations)

    def test_journal_without_chaos_track_passes(self):
        _tracer, journal = self.make()
        assert TraceChecker(journal).check_fault_recovery() == []


class TestAvailabilityChecker:
    """The outage pass (``TraceChecker.outages``) held to the bound the
    spec implies (``outage_bound``), on hand-built ``shards`` journals
    and server uptimes.  ``CRASH`` gets the unplanned bound,
    ``SESSION_TIMEOUT`` + 30 s grace + one emergency tick + one create
    (46 s); ``UPGRADE`` is planned, so its ``sm`` run gets 0.  Each test
    names the broken pass it fails against."""

    CRASH = small_spec([act(20.0, "crash_machine", 30.0)])
    UPGRADE = small_spec([act(20.0, "rolling_upgrade")])

    def make(self):
        journal = Journal()
        return Tracer(journal), journal

    @staticmethod
    def transition(tracer, time, op, replica="s0#1", address="a",
                   role="primary", state="ready"):
        tracer.instant("shards", "transition", time,
                       {"app": "app", "op": op, "shard": "s0",
                        "replica": replica, "address": address,
                        "role": role, "state": state})

    @staticmethod
    def create(tracer, sent, settled, address, ok):
        """A create RPC: a settled one journals nothing, a failed one its
        ``net`` instant."""
        if not ok:
            tracer.instant("net", "sm.add_shard", settled,
                           {"src": "orchestrator", "dst": address,
                            "sent": sent, "error": "timeout"})

    @staticmethod
    def flagged(journal, uptime, until, spec=CRASH, arm="sm"):
        outages = TraceChecker(journal).outages(uptime, until)
        return outages, [o for o in outages
                         if o.end - o.start > outage_bound(spec, arm, o)]

    def test_initial_placement_not_an_outage(self):
        """Fails against a pass that opens a gap before a shard's first
        READY primary: a slow deploy is no outage."""
        tracer, journal = self.make()
        self.transition(tracer, 5.0, "add", state="starting")
        self.transition(tracer, 500.0, "set_state")
        assert self.flagged(journal, {"a": [0.0]}, 600.0) == ([], [])

    def test_short_gap_passes(self):
        """A restart inside the bound: the server stops at 10 s and is
        back at 25 s with the table unchanged.  Fails against a pass that
        reads the table alone, which sees no gap at all."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        outages, flagged = self.flagged(journal, {"a": [0.0, 10.0, 25.0]},
                                        100.0)
        assert [(o.start, o.end) for o in outages] == [(10.0, 25.0)]
        assert flagged == []

    def test_failover_within_the_bound_passes(self):
        """A crash replaced by a failover's create 38.1 s after the stop
        (``crash_single``'s measured outage).  Fails against a pass that
        measures from the table's drop at 48 s (0.1 s)."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 48.0, "drop")
        self.transition(tracer, 48.1, "add", replica="s0#2", address="b")
        outages, flagged = self.flagged(
            journal, {"a": [0.0, 10.0], "b": [0.0]}, 100.0)
        assert [o.end - o.start for o in outages] == [pytest.approx(38.1)]
        assert flagged == []

    def test_long_gap_flagged(self):
        """The server stops and comes back 90 s later, never failed over
        (the table keeps its primary READY).  Fails against a table-only
        pass."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        _outages, flagged = self.flagged(journal, {"a": [0.0, 10.0, 100.0]},
                                         200.0)
        assert [(o.start, o.end, o.open) for o in flagged] == [
            (10.0, 100.0, False)]

    def test_open_gap_at_end_counts(self):
        """A crash never replaced: the outage is still open when the run
        ends, and is flagged up to that end.  Fails against a pass that
        only closes outages a READY primary ends."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 50.0, "drop")
        _outages, flagged = self.flagged(journal, {"a": [0.0, 10.0]}, 100.0)
        assert [(o.start, o.end, o.open) for o in flagged] == [
            (10.0, 100.0, True)]

    def test_reset_with_immediate_restore_passes(self):
        """An orchestrator failover restores the primary at the instant
        of its reset; even the planned ``sm`` bound of 0 holds.  Fails
        against a pass that counts a gap of no length."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        tracer.instant("shards", "transition", 50.0,
                       {"app": "app", "op": "reset"})
        self.transition(tracer, 50.0, "add", replica="s0#2")
        assert self.flagged(journal, {"a": [0.0]}, 100.0,
                            spec=self.UPGRADE) == ([], [])

    def test_reset_without_restore_flagged(self):
        """Fails against a pass that ignores ``op=reset`` (the dead
        incarnation's primary would still count)."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        tracer.instant("shards", "transition", 50.0,
                       {"app": "app", "op": "reset"})
        _outages, flagged = self.flagged(journal, {"a": [0.0]}, 200.0)
        assert [(o.start, o.open) for o in flagged] == [(50.0, True)]

    def chained_loss(self, end):
        """``crash_burst_stop`` seed 1: the primary's server stops at
        38.099 s and is failed over at 78 s, but the creates at 78 s and
        80 s go to a server that stopped at 72.351 s and whose session
        lives on; the create at ``end`` lands elsewhere."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 78.0, "drop")
        for sent in (78.0, 80.0):
            self.create(tracer, sent, sent + 1.0, "b", ok=False)
        self.create(tracer, end - 0.002, end, "c", ok=True)
        self.transition(tracer, end, "add", replica="s0#2", address="c")
        uptime = {"a": [0.0, 38.099], "b": [0.0, 72.351], "c": [0.0]}
        return self.flagged(journal, uptime, 200.0)

    def test_chained_loss_passes_at_its_measured_length(self):
        """46.903 s, past the single-loss 46 s but inside 50.252 s (the
        dead target's stop + ``SESSION_TIMEOUT`` + a tick + a create):
        fails against a bound without the chained-loss term."""
        outages, flagged = self.chained_loss(85.002)
        assert [o.end - o.start for o in outages] == [
            pytest.approx(46.903)]
        assert outages[0].dead_target_stopped == 72.351
        assert flagged == []

    def test_chained_loss_fails_one_emergency_tick_longer(self):
        """The same loss one ``EMERGENCY_CHECK_INTERVAL`` later: fails
        against a chained term with a tick of slack in it."""
        _outages, flagged = self.chained_loss(85.002
                                              + EMERGENCY_CHECK_INTERVAL)
        assert len(flagged) == 1

    def test_a_planned_role_swap_may_take_one_rpc(self):
        """A primary-secondary app hands its primary over by demoting it
        before promoting a secondary: 72 ms with no primary passes, a
        swap past ``DEFAULT_RPC_TIMEOUT`` does not.  Fails against a
        planned bound of 0 for every replication."""
        spec = small_spec([act(20.0, "maintenance", impact="NETWORK_LOSS")],
                          replication=ReplicationStrategy.PRIMARY_SECONDARY,
                          replica_count=2)
        uptime = {"a": [0.0], "b": [0.0]}
        for promoted, flagged in ((40.074, 0), (41.003, 1)):
            tracer, journal = self.make()
            self.transition(tracer, 0.0, "add")
            self.transition(tracer, 0.0, "add", replica="s0#2",
                            address="b", role="secondary")
            self.transition(tracer, 40.002, "set_role", role="secondary")
            self.transition(tracer, promoted, "set_role", replica="s0#2",
                            address="b")
            assert len(self.flagged(journal, uptime, 100.0,
                                    spec=spec)[1]) == flagged

    def test_any_gap_in_a_planned_sm_timeline_is_flagged(self):
        """A 2 ms handover gap: the ``sm`` arm's planned bound is 0, the
        other arms' is the unplanned one.  Fails against a pass that lets
        a planned timeline lose a primary for any time."""
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 60.0, "drop")
        self.transition(tracer, 60.002, "add", replica="s0#2", address="b")
        uptime = {"a": [0.0], "b": [0.0]}
        _outages, flagged = self.flagged(journal, uptime, 100.0,
                                         spec=self.UPGRADE)
        assert len(flagged) == 1
        assert self.flagged(journal, uptime, 100.0, spec=self.UPGRADE,
                            arm="no_graceful")[1] == []


class TestFailoverDetectionChecker:
    """A crashed primary's address must be failed over or recovered
    within the crash bound: the outage pass on the two ends a crash can
    have without a failover, on ``TestAvailabilityChecker``'s journals."""

    helpers = TestAvailabilityChecker

    def test_stranded_address_flagged(self):
        """The primary's server stops at 10 s and never comes back, and
        no failover drops it: the table keeps it READY to the end.  Fails
        against a pass that opens outages on table changes alone."""
        tracer, journal = self.helpers().make()
        self.helpers.transition(tracer, 0.0, "add")
        _outages, flagged = self.helpers.flagged(journal, {"a": [0.0, 10.0]},
                                                 100.0)
        assert [(o.start, o.end, o.open) for o in flagged] == [
            (10.0, 100.0, True)]

    def test_recovery_within_bound_passes(self):
        """The crashed machine recovers 40 s later, before any failover:
        the outage ends when its server is up again, inside the 46 s
        crash bound.  Fails against a pass that waits for a failover's
        create to close an outage."""
        tracer, journal = self.helpers().make()
        self.helpers.transition(tracer, 0.0, "add")
        outages, flagged = self.helpers.flagged(
            journal, {"a": [0.0, 10.0, 50.0]}, 100.0)
        assert [(o.start, o.end, o.open) for o in outages] == [
            (10.0, 50.0, False)]
        assert flagged == []


class TestInjectorOverlap:
    def test_down_check_defers_crash_on_down_target(self):
        engine = Engine()
        down = {"m0"}
        events = []
        injector = CrashInjector(
            engine=engine, rng=random.Random(3), mtbf=10.0, repair_time=2.0,
            on_fail=lambda t: events.append("fail"),
            on_repair=lambda t: events.append("repair"),
            down_check=lambda t: t in down)
        injector.start(["m0"])
        engine.run(until=100.0)
        assert events == []  # every attempt deferred, none double-applied
        down.clear()
        engine.run(until=300.0)
        assert "fail" in events  # resumes once the target is back up

    def test_stop_completes_in_flight_repairs(self):
        engine = Engine()
        counts = {"fail": 0, "repair": 0}
        injector = CrashInjector(
            engine=engine, rng=random.Random(5), mtbf=10.0, repair_time=8.0,
            on_fail=lambda t: counts.__setitem__("fail", counts["fail"] + 1),
            on_repair=lambda t: counts.__setitem__("repair",
                                                   counts["repair"] + 1))
        injector.start(["m0", "m1", "m2"])
        engine.run(until=50.0)
        injector.stop()
        engine.run(until=1_000.0)
        assert counts["fail"] > 0
        assert counts["repair"] == counts["fail"]  # nothing stranded down
        assert all(r.repair_time is not None for r in injector.records)

    def test_no_new_failures_after_stop(self):
        engine = Engine()
        counts = {"fail": 0}
        injector = CrashInjector(
            engine=engine, rng=random.Random(5), mtbf=10.0, repair_time=8.0,
            on_fail=lambda t: counts.__setitem__("fail", counts["fail"] + 1),
            on_repair=lambda t: None)
        injector.start(["m0", "m1", "m2"])
        engine.run(until=50.0)
        injector.stop()
        at_stop = counts["fail"]
        engine.run(until=1_000.0)
        assert counts["fail"] == at_stop


class TestTwineDownHolds:
    def test_crash_during_maintenance_holds_until_window_end(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.schedule_maintenance([machine_id], 40.0, 100.0,
                                   MaintenanceImpact.RUNTIME_STATE_LOSS)
        engine.run(until=50.0)
        assert not twine.machine_up(machine_id)
        twine.fail_machine(machine_id, cause="chaos:f1")
        engine.run(until=60.0)
        # The chaos hold releases mid-window: the maintenance hold must
        # keep the machine down (this used to revive it early).
        twine.repair_machine(machine_id, cause="chaos:f1")
        assert not twine.machine_up(machine_id)
        engine.run(until=130.0)
        assert twine.machine_up(machine_id)
        assert containers[0].running

    def test_maintenance_ending_does_not_revive_crashed_machine(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.fail_machine(machine_id, cause="chaos:f1")
        twine.schedule_maintenance([machine_id], 40.0, 60.0,
                                   MaintenanceImpact.RUNTIME_STATE_LOSS)
        engine.run(until=80.0)  # window over; crash hold remains
        assert not twine.machine_up(machine_id)
        assert twine.repair_machine(machine_id, cause="chaos:f1")
        assert twine.machine_up(machine_id)

    def test_repair_with_wrong_cause_is_a_noop(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.fail_machine(machine_id, cause="chaos:f1")
        assert not twine.repair_machine(machine_id, cause="chaos:other")
        assert not twine.machine_up(machine_id)

    def test_same_cause_fail_is_idempotent(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        before = twine.container_stops_unplanned
        twine.fail_machine(machine_id, cause="chaos:f1")
        stops = twine.container_stops_unplanned - before
        twine.fail_machine(machine_id, cause="chaos:f1")
        assert twine.container_stops_unplanned - before == stops


class TestMaintenanceAccounting:
    """Twine counts a window's planned stops when it opens, not when it
    is announced: containers start, stop and move in the notice period."""

    def announce(self, twine, engine, machine_id):
        start = engine.now + 60.0
        twine.schedule_maintenance([machine_id], start, start + 1_800.0,
                                   MaintenanceImpact.RUNTIME_STATE_LOSS)

    def test_counted_at_window_open_not_notice(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        before = twine.container_stops_planned
        self.announce(twine, engine, containers[0].machine.machine_id)
        assert twine.container_stops_planned == before  # notice: no stops
        engine.run(until=engine.now + 70.0)  # 60 s notice + slack
        assert twine.container_stops_planned == before + 1

    def test_crash_before_window_opens_counts_zero(self):
        """The count reflects what the window actually stopped: a machine
        that crashed during the notice period contributes nothing."""
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        before = twine.container_stops_planned
        machine_id = containers[0].machine.machine_id
        self.announce(twine, engine, machine_id)
        twine.fail_machine(machine_id)
        engine.run(until=engine.now + 70.0)
        assert twine.container_stops_planned == before

    def test_down_machine_skipped_entirely(self):
        """A window on a machine already down stops nothing, and its end
        does not bring the machine back."""
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.fail_machine(machine_id)
        before = twine.container_stops_planned
        self.announce(twine, engine, machine_id)
        engine.run(until=engine.now + 2_000.0)  # past the window's end
        assert twine.container_stops_planned == before
        assert not twine.machine_up(machine_id)
