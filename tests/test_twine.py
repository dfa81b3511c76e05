"""Unit tests for the Twine cluster manager and TaskControl protocol."""

import pytest

from repro.cluster.container import ContainerState
from repro.cluster.taskcontrol import (
    ApproveAllController,
    DenyAllController,
    MaintenanceImpact,
    OpKind,
    OpReason,
)
from repro.cluster.topology import build_topology
from repro.cluster.twine import Twine, TwineConfig
from repro.sim.engine import Engine


def make_twine(machines=10, region="FRC", config=None):
    engine = Engine()
    topology = build_topology([region], machines_per_region=machines)
    twine = Twine(engine, region, topology.machines, config=config)
    return engine, twine


class TestJobs:
    def test_create_job_starts_containers(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 5)
        assert len(containers) == 5
        assert all(c.state is ContainerState.STARTING for c in containers)
        engine.run(until=30.0)
        assert all(c.running for c in containers)

    def test_task_ids_sequential_from_zero(self):
        _engine, twine = make_twine()
        containers = twine.create_job("web", 4)
        assert [c.task_id for c in containers] == [0, 1, 2, 3]

    def test_job_growth_continues_task_ids(self):
        engine, twine = make_twine()
        twine.create_job("web", 3)
        engine.run(until=30.0)
        more = twine.create_job("web", 2)
        assert [c.task_id for c in more] == [3, 4]

    def test_one_container_per_machine(self):
        _engine, twine = make_twine(machines=5)
        containers = twine.create_job("web", 5)
        machines = {c.machine.machine_id for c in containers}
        assert len(machines) == 5

    def test_insufficient_machines_raises(self):
        _engine, twine = make_twine(machines=2)
        with pytest.raises(RuntimeError):
            twine.create_job("web", 5)

    def test_region_mismatch_rejected(self):
        engine = Engine()
        topology = build_topology(["FRC"], machines_per_region=2)
        with pytest.raises(ValueError):
            Twine(engine, "PRN", topology.machines)

    def test_addresses_are_region_qualified(self):
        _engine, twine = make_twine(region="PRN")
        containers = twine.create_job("web", 1)
        assert containers[0].address == "PRN/web/0"


class TestNegotiation:
    def test_without_controller_ops_execute(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        twine.submit_op(OpKind.RESTART, containers[0], OpReason.MANUAL)
        engine.run(until=60.0)
        assert containers[0].restarts == 1

    def test_deny_all_controller_blocks_ops(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        controller = DenyAllController()
        twine.register_task_controller(controller)
        twine.submit_op(OpKind.RESTART, containers[0], OpReason.UPGRADE)
        engine.run(until=120.0)
        assert containers[0].restarts == 0
        assert controller.denied > 0

    def test_rolling_upgrade_restarts_everything(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 6)
        engine.run(until=30.0)
        twine.register_task_controller(ApproveAllController())
        upgrade = twine.start_rolling_upgrade("web", max_concurrent=2,
                                              restart_duration=10.0)
        engine.run(until=300.0)
        assert upgrade.done
        assert all(c.restarts == 1 for c in containers)
        assert upgrade.finished_at is not None

    def test_upgrade_respects_concurrency(self):
        engine, twine = make_twine(config=TwineConfig(negotiation_interval=1.0))
        containers = twine.create_job("web", 8)
        engine.run(until=30.0)
        twine.register_task_controller(ApproveAllController())
        max_down = 0

        def watch():
            nonlocal max_down
            down = sum(1 for c in containers if not c.running)
            max_down = max(max_down, down)
            if engine.now < 250.0:
                engine.call_after(0.5, watch)

        twine.start_rolling_upgrade("web", max_concurrent=2,
                                    restart_duration=20.0)
        engine.call_after(1.0, watch)
        engine.run(until=300.0)
        assert max_down <= 2

    def test_upgrade_without_running_containers_raises(self):
        _engine, twine = make_twine()
        twine.create_job("web", 1)
        with pytest.raises(RuntimeError):
            twine.start_rolling_upgrade("web", 1, 10.0)

    def test_planned_stop_counter(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 2)
        engine.run(until=30.0)
        twine.submit_op(OpKind.RESTART, containers[0], OpReason.MANUAL)
        engine.run(until=36.0)   # negotiated at 35 s, stopping for 2 s
        assert twine.container_stops_planned == 1
        assert containers[0].state is ContainerState.STOPPING
        engine.run(until=60.0)
        assert containers[0].running
        assert twine.container_stops_unplanned == 0


class TestFailures:
    def test_fail_machine_stops_containers(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 3)
        engine.run(until=30.0)
        victim = containers[0].machine.machine_id
        twine.fail_machine(victim)
        assert not containers[0].running
        assert twine.container_stops_unplanned == 1

    def test_repair_restarts_containers(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 1)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.fail_machine(machine_id)
        twine.repair_machine(machine_id)
        engine.run(until=60.0)
        assert containers[0].running

    def test_fail_is_idempotent(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 1)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.fail_machine(machine_id)
        twine.fail_machine(machine_id)
        assert twine.container_stops_unplanned == 1


class TestMaintenance:
    def test_notice_reaches_controller(self):
        engine, twine = make_twine()
        twine.create_job("web", 2)
        engine.run(until=30.0)
        notices = []

        class Recorder(ApproveAllController):
            def on_maintenance_notice(self, notice):
                notices.append(notice)

        twine.register_task_controller(Recorder())
        twine.schedule_maintenance(
            [twine.machines[0].machine_id], start_time=100.0, end_time=200.0,
            impact=MaintenanceImpact.RUNTIME_STATE_LOSS)
        assert len(notices) == 1
        assert (notices[0].start_time, notices[0].end_time) == (100.0, 200.0)

    def test_machine_down_during_window(self):
        engine, twine = make_twine()
        containers = twine.create_job("web", 1)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.schedule_maintenance([machine_id], 100.0, 200.0,
                                   MaintenanceImpact.MACHINE_LOSS)
        engine.run(until=150.0)
        assert not containers[0].running
        engine.run(until=260.0)
        assert containers[0].running

    def test_network_loss_uses_hook(self):
        engine = Engine()
        topology = build_topology(["FRC"], machines_per_region=2)
        hook_calls = []
        twine = Twine(engine, "FRC", topology.machines)
        twine.set_machine_network_hook(
            lambda mid, up: hook_calls.append((mid, up)))
        containers = twine.create_job("web", 1)
        engine.run(until=30.0)
        machine_id = containers[0].machine.machine_id
        twine.schedule_maintenance([machine_id], 100.0, 200.0,
                                   MaintenanceImpact.NETWORK_LOSS)
        engine.run(until=250.0)
        assert (machine_id, False) in hook_calls
        assert (machine_id, True) in hook_calls
        assert containers[0].running  # container never stopped

    def test_invalid_windows_rejected(self):
        engine, twine = make_twine()
        with pytest.raises(ValueError):
            twine.schedule_maintenance(["m000000"], 10.0, 5.0,
                                       MaintenanceImpact.MACHINE_LOSS)
