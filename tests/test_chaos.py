"""Chaos engine tests: scenario determinism, the fault oracle, injector
overlap semantics, Twine down-holds, and maintenance accounting."""

import random

import pytest

from repro.chaos import (
    ACTIONS,
    SCENARIOS,
    Expectations,
    FaultAction,
    ScenarioSpec,
    all_scenarios,
    get,
    run_scenario,
)
from repro.cluster.maintenance import MaintenanceSchedule
from repro.cluster.taskcontrol import MaintenanceImpact
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine
from repro.obs.checker import TraceChecker
from repro.obs.tracer import Journal, Tracer
from repro.sim.engine import Engine
from repro.sim.failures import CrashInjector


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
            [act(20.0, "crash_machine", 30.0, region="FRC", index=0)],
            expectations=Expectations(availability_bound=120.0,
                                      failover_bound=100.0))
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


class TestFailoverDetectionChecker:
    def make(self):
        journal = Journal()
        return Tracer(journal), journal

    def test_stranded_address_flagged(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "fault", 10.0,
                       {"fault": "f1", "kind": "crash", "target": "m0",
                        "addresses": ["FRC/app/0"]})
        violations = TraceChecker(journal).check_failover_detection(30.0)
        assert [v.invariant for v in violations] == ["failover-detection"]

    def test_failover_within_bound_passes(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "fault", 10.0,
                       {"fault": "f1", "kind": "crash", "target": "m0",
                        "addresses": ["FRC/app/0"]})
        tracer.instant("orchestrator", "failover", 25.0,
                       {"app": "app", "address": "FRC/app/0",
                        "replicas_lost": 2})
        assert TraceChecker(journal).check_failover_detection(30.0) == []

    def test_recovery_within_bound_passes(self):
        tracer, journal = self.make()
        tracer.instant("chaos", "fault", 10.0,
                       {"fault": "f1", "kind": "crash", "target": "m0",
                        "addresses": ["FRC/app/0"]})
        tracer.instant("chaos", "recover", 20.0,
                       {"fault": "f1", "kind": "crash", "target": "m0"})
        assert TraceChecker(journal).check_failover_detection(30.0) == []


class TestAvailabilityChecker:
    def make(self):
        journal = Journal()
        return Tracer(journal), journal

    @staticmethod
    def transition(tracer, time, op, replica="s0#1", role="primary",
                   state="ready"):
        tracer.instant("shards", "transition", time,
                       {"app": "app", "op": op, "shard": "s0",
                        "replica": replica, "address": "a", "role": role,
                        "state": state})

    def test_long_gap_flagged(self):
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 10.0, "set_state", state="starting")
        self.transition(tracer, 100.0, "set_state", state="ready")
        violations = TraceChecker(journal).check_availability(30.0)
        assert [v.invariant for v in violations] == ["availability"]

    def test_short_gap_passes(self):
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 10.0, "set_state", state="starting")
        self.transition(tracer, 25.0, "set_state", state="ready")
        assert TraceChecker(journal).check_availability(30.0) == []

    def test_initial_placement_not_an_outage(self):
        tracer, journal = self.make()
        self.transition(tracer, 500.0, "add")  # slow deploy, never ready before
        assert TraceChecker(journal).check_availability(30.0) == []

    def test_open_gap_at_end_counts(self):
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        self.transition(tracer, 10.0, "drop")
        violations = TraceChecker(journal).check_availability(30.0,
                                                              until=100.0)
        assert len(violations) == 1

    def test_reset_with_immediate_restore_passes(self):
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        tracer.instant("shards", "transition", 50.0,
                       {"app": "app", "op": "reset"})
        self.transition(tracer, 50.0, "add", replica="s0#2")
        assert TraceChecker(journal).check_availability(30.0) == []

    def test_reset_without_restore_flagged(self):
        tracer, journal = self.make()
        self.transition(tracer, 0.0, "add")
        tracer.instant("shards", "transition", 50.0,
                       {"app": "app", "op": "reset"})
        violations = TraceChecker(journal).check_availability(30.0,
                                                              until=200.0)
        assert len(violations) == 1


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
    def make_schedule(self, twine, engine):
        return MaintenanceSchedule(engine=engine, twine=twine,
                                   rng=random.Random(0))

    def test_counted_at_window_open_not_notice(self):
        engine, twine = make_twine()
        twine.create_job("web", 3)
        engine.run(until=30.0)
        schedule = self.make_schedule(twine, engine)
        machine_id = twine.job_containers("web")[0].machine.machine_id
        schedule._maintain(machine_id)
        assert schedule.stats.maintenance == 0  # notice time: no stops yet
        engine.run(until=engine.now + 70.0)  # 60 s notice + slack
        assert schedule.stats.maintenance == 1

    def test_crash_before_window_opens_counts_zero(self):
        """The count reflects what the window actually stopped: a machine
        that crashed during the notice period contributes nothing."""
        engine, twine = make_twine()
        twine.create_job("web", 3)
        engine.run(until=30.0)
        schedule = self.make_schedule(twine, engine)
        machine_id = twine.job_containers("web")[0].machine.machine_id
        schedule._maintain(machine_id)
        twine.fail_machine(machine_id)
        engine.run(until=engine.now + 70.0)
        assert schedule.stats.maintenance == 0

    def test_down_machine_skipped_entirely(self):
        engine, twine = make_twine()
        twine.create_job("web", 3)
        engine.run(until=30.0)
        schedule = self.make_schedule(twine, engine)
        machine_id = twine.job_containers("web")[0].machine.machine_id
        twine.fail_machine(machine_id)
        scheduled = []
        original = twine.schedule_maintenance
        twine.schedule_maintenance = (
            lambda *a, **k: scheduled.append(a) or original(*a, **k))
        schedule._maintain(machine_id)
        assert scheduled == []  # no window announced for a dead machine
