"""Twine: the (simulated) regional cluster manager.

Twine owns the machines of one region, runs jobs as groups of containers,
and executes container lifecycle operations.  Before executing a
*negotiable* operation (upgrade, autoscale) it consults the registered
:class:`~repro.cluster.taskcontrol.TaskController` via the TaskControl
protocol; *non-negotiable* events (hardware maintenance, kernel updates)
are announced in advance and executed unconditionally at their scheduled
time (§4.1–4.2).

One Twine instance per region: "two Twine instances independently plan to
restart two containers in different regions" (§4.1) is exactly the
scenario the geo-aware SM TaskController must coordinate, so the region
boundary lives here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..sim.engine import Engine
from .container import Container, ContainerState
from .taskcontrol import (
    ContainerOp,
    MaintenanceImpact,
    MaintenanceNotice,
    OpKind,
    OpReason,
    TaskController,
)
from .topology import Machine


#: Container lifecycle durations, seconds: a stop and a start.
CONTAINER_STOP_DURATION = 2.0
CONTAINER_START_DURATION = 10.0


@dataclass
class TwineConfig:
    """Timing knobs for container lifecycle operations (seconds)."""

    negotiation_interval: float = 5.0


@dataclass
class RollingUpgrade:
    """Progress of one rolling upgrade of a job."""

    job: str
    total: int
    max_concurrent: int
    restart_duration: float
    started_at: float
    completed: int = 0
    finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.completed >= self.total


class Twine:
    """Cluster manager for the machines of a single region."""

    def __init__(self, engine: Engine, region: str, machines: Sequence[Machine],
                 config: Optional[TwineConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        for machine in machines:
            if machine.region != region:
                raise ValueError(
                    f"machine {machine.machine_id} is in {machine.region}, "
                    f"not {region}"
                )
        self.engine = engine
        self.region = region
        self.machines = list(machines)
        self.config = config or TwineConfig()
        self.rng = rng or random.Random(0)
        self._machine_network_hook: Optional[Callable[[str, bool], None]] = None
        self._controller: Optional[TaskController] = None
        self._containers: Dict[str, Container] = {}
        self._jobs: Dict[str, List[Container]] = {}
        self._pending_ops: List[ContainerOp] = []
        self._in_flight: Dict[str, ContainerOp] = {}
        self._op_counter = itertools.count()
        self._notice_counter = itertools.count()
        self._upgrades: Dict[str, RollingUpgrade] = {}
        self._negotiating = False
        # Why each down machine is down ("crash", "maint:<notice_id>", ...).
        # A machine transitions up<->down only on its first hold / last
        # release, so an unplanned crash overlapping a maintenance window
        # can neither double-stop containers nor end the window early.
        self._down_holds: Dict[str, Set[str]] = {}
        self._maint_on_begin: Dict[str, Callable[[MaintenanceNotice, int], None]] = {}
        # Statistics used by experiments.
        self.container_stops_planned = 0
        self.container_stops_unplanned = 0

    # -- controller registration ----------------------------------------------

    def register_task_controller(self, controller: TaskController) -> None:
        self._controller = controller
        if self._pending_ops and not self._negotiating:
            self._start_negotiation_loop()

    def set_machine_network_hook(self,
                                 hook: Optional[Callable[[str, bool], None]]
                                 ) -> None:
        """Install the machine→endpoints hook (the harness builds Twines
        before any application runtime exists)."""
        self._machine_network_hook = hook

    # -- job management --------------------------------------------------------

    def create_job(self, job: str, count: int) -> List[Container]:
        """Deploy and start ``count`` containers, one per machine,
        rack-spread.

        Containers get sequential task IDs starting from the job's current
        size (§2.2.1).
        """
        if job in self._jobs and self._jobs[job]:
            base_task_id = max(c.task_id for c in self._jobs[job]) + 1
        else:
            base_task_id = 0
        occupied = {c.machine.machine_id for c in self._containers.values()
                    if c.state is not ContainerState.STOPPED}
        free = [m for m in self.machines
                if m.up and m.machine_id not in occupied]
        if len(free) < count:
            raise RuntimeError(
                f"{self.region}: need {count} machines for job {job!r}, "
                f"only {len(free)} free"
            )
        # Spread across racks: sort by (rack occupancy) round-robin.
        free.sort(key=lambda m: (m.rack, m.machine_id))
        chosen = free[::max(1, len(free) // count)][:count]
        if len(chosen) < count:
            chosen = free[:count]
        containers = []
        job_list = self._jobs.setdefault(job, [])
        for offset, machine in enumerate(chosen):
            container = Container(
                container_id=f"{self.region}/{job}/{base_task_id + offset}",
                job=job,
                task_id=base_task_id + offset,
                machine=machine,
                state=ContainerState.STOPPED,
            )
            self._containers[container.container_id] = container
            job_list.append(container)
            containers.append(container)
            self._start_container(container)
        return containers

    def job_containers(self, job: str) -> List[Container]:
        return list(self._jobs.get(job, []))

    def _start_container(self, container: Container) -> None:
        container.state = ContainerState.STARTING
        self.engine.call_after(CONTAINER_START_DURATION,
                               lambda: self._finish_start(container))

    def _finish_start(self, container: Container) -> None:
        if container.state is ContainerState.STARTING and container.machine.up:
            container.mark_running()

    # -- negotiable operations (§4.1) -------------------------------------------

    def submit_op(self, kind: OpKind, container: Container,
                  reason: OpReason) -> ContainerOp:
        """Queue a negotiable operation for controller review."""
        op = ContainerOp(
            op_id=f"{self.region}/op{next(self._op_counter)}",
            kind=kind,
            container=container,
            reason=reason,
            region=self.region,
        )
        self._pending_ops.append(op)
        if not self._negotiating:
            self._start_negotiation_loop()
        return op

    def start_rolling_upgrade(self, job: str, max_concurrent: int,
                              restart_duration: float) -> RollingUpgrade:
        """Restart every container of ``job``, at most ``max_concurrent`` at
        a time, each restart taking ``restart_duration`` seconds of downtime.
        """
        containers = [c for c in self._jobs.get(job, []) if c.running]
        if not containers:
            raise RuntimeError(f"{self.region}: job {job!r} has no running containers")
        upgrade = RollingUpgrade(
            job=job,
            total=len(containers),
            max_concurrent=max(1, max_concurrent),
            restart_duration=restart_duration,
            started_at=self.engine.now,
        )
        self._upgrades[job] = upgrade
        for container in containers:
            self.submit_op(OpKind.RESTART, container, OpReason.UPGRADE)
        return upgrade

    def _start_negotiation_loop(self) -> None:
        self._negotiating = True
        self.engine.call_after(self.config.negotiation_interval, self._negotiate)

    def _job_in_flight(self, job: str) -> int:
        return sum(1 for op in self._in_flight.values() if op.container.job == job)

    def _concurrency_room(self, op: ContainerOp) -> bool:
        """Twine's own per-job concurrency limit for rolling upgrades."""
        upgrade = self._upgrades.get(op.container.job)
        if upgrade is None or op.reason is not OpReason.UPGRADE:
            return True
        return self._job_in_flight(op.container.job) < upgrade.max_concurrent

    def _negotiate(self) -> None:
        if not self._pending_ops:
            self._negotiating = False
            return
        proposable = [op for op in self._pending_ops
                      if op.container.machine.up and self._concurrency_room(op)]
        if proposable:
            if self._controller is not None:
                approved = self._controller.review_ops(proposable)
            else:
                approved = list(proposable)
            # Re-apply the concurrency cap in approval order: the controller
            # may approve more than the per-job limit allows at once.
            pending_ids = {op.op_id for op in self._pending_ops}
            for op in approved:
                if op.op_id not in pending_ids:
                    raise RuntimeError(f"controller approved unknown op {op!r}")
                if not self._concurrency_room(op):
                    continue
                pending_ids.discard(op.op_id)
                self._pending_ops = [p for p in self._pending_ops
                                     if p.op_id != op.op_id]
                self._execute(op)
        self.engine.call_after(self.config.negotiation_interval, self._negotiate)

    # -- operation execution ----------------------------------------------------

    def _execute(self, op: ContainerOp) -> None:
        self._in_flight[op.op_id] = op
        self._do_restart(op, op.container)

    def _finish_op(self, op: ContainerOp) -> None:
        self._in_flight.pop(op.op_id, None)
        upgrade = self._upgrades.get(op.container.job)
        if upgrade is not None and op.reason is OpReason.UPGRADE:
            upgrade.completed += 1
            if upgrade.done and upgrade.finished_at is None:
                upgrade.finished_at = self.engine.now
        if self._controller is not None:
            self._controller.on_op_finished(op)

    def _do_restart(self, op: ContainerOp, container: Container) -> None:
        upgrade = self._upgrades.get(container.job)
        downtime = upgrade.restart_duration if upgrade else (
            CONTAINER_STOP_DURATION + CONTAINER_START_DURATION)
        container.mark_stopping()
        self.container_stops_planned += 1

        def stopped() -> None:
            container.mark_stopped()

            def started() -> None:
                if container.machine.up:
                    container.restarts += 1
                    container.mark_running()
                self._finish_op(op)

            self.engine.call_after(downtime, started)

        self.engine.call_after(CONTAINER_STOP_DURATION, stopped)

    # -- unplanned failures -------------------------------------------------------

    def machine_up(self, machine_id: str) -> bool:
        """Public liveness query (fault injectors must not poke ``_machine``)."""
        return self._machine(machine_id).up

    def fail_machine(self, machine_id: str, cause: str = "crash") -> int:
        """Unplanned machine crash: containers stop with no warning.

        ``cause`` labels the down-hold; a machine stays down until every
        cause that took it down has released it (see
        :meth:`repair_machine`).  Returns the number of containers this
        crash stopped (0 if the machine was already down).
        """
        return self._take_machine_down(machine_id, cause, planned=False)

    def repair_machine(self, machine_id: str, cause: str = "crash") -> bool:
        """Release one down-hold; True when the machine actually came up."""
        return self._release_machine(machine_id, cause)

    def _take_machine_down(self, machine_id: str, cause: str,
                           planned: bool) -> int:
        """Add a down-hold; on the first hold, take the machine down.

        Returns how many containers this call stopped (0 when the machine
        was already down or the hold already existed).
        """
        machine = self._machine(machine_id)
        holds = self._down_holds.setdefault(machine_id, set())
        if cause in holds:
            return 0
        holds.add(cause)
        if not machine.up:
            # Already down for another cause; just remember ours.
            return 0
        machine.up = False
        if self._machine_network_hook is not None:
            self._machine_network_hook(machine_id, False)
        # Planned stops take only RUNNING containers (the launch in flight
        # was never serving); a crash also kills STARTING ones.
        states = ((ContainerState.RUNNING,) if planned
                  else (ContainerState.RUNNING, ContainerState.STARTING))
        stopped = 0
        for container in self._containers.values():
            if container.machine is machine and container.state in states:
                stopped += 1
                if planned:
                    self.container_stops_planned += 1
                else:
                    self.container_stops_unplanned += 1
                container.mark_stopped()
        return stopped

    def _release_machine(self, machine_id: str, cause: str) -> bool:
        """Drop a down-hold; on the last release, bring the machine up.

        Returns True when the machine actually came back up.
        """
        machine = self._machine(machine_id)
        holds = self._down_holds.get(machine_id)
        if holds is not None:
            holds.discard(cause)
            if holds:
                return False  # someone else still holds it down
        if machine.up:
            return False
        machine.up = True
        if self._machine_network_hook is not None:
            self._machine_network_hook(machine_id, True)
        for container in self._containers.values():
            if container.machine is machine and container.state is ContainerState.STOPPED:
                self._start_container(container)
        return True

    def _machine(self, machine_id: str) -> Machine:
        for machine in self.machines:
            if machine.machine_id == machine_id:
                return machine
        raise KeyError(f"{self.region}: unknown machine {machine_id!r}")

    # -- non-negotiable maintenance (§4.2) ----------------------------------------

    def schedule_maintenance(self, machine_ids: Sequence[str], start_time: float,
                             end_time: float, impact: MaintenanceImpact,
                             on_begin: Optional[Callable[[MaintenanceNotice, int], None]] = None,
                             ) -> MaintenanceNotice:
        """Announce and later execute a non-negotiable maintenance event.

        The controller gets the advance notice immediately; at ``start_time``
        the physical impact is applied and reverted at ``end_time``.
        ``on_begin`` (if given) fires when the window actually opens, with
        the notice and the number of containers the window stopped — the
        accounting hook for schedulers that must not guess at notice time
        what the fleet will look like 60 s later.
        """
        if start_time < self.engine.now:
            raise ValueError("maintenance cannot start in the past")
        if end_time <= start_time:
            raise ValueError("maintenance must end after it starts")
        notice = MaintenanceNotice(
            notice_id=f"{self.region}/maint{next(self._notice_counter)}",
            machine_ids=tuple(machine_ids),
            start_time=start_time,
            end_time=end_time,
            impact=impact,
            region=self.region,
        )
        if on_begin is not None:
            self._maint_on_begin[notice.notice_id] = on_begin
        if self._controller is not None:
            self._controller.on_maintenance_notice(notice)
        self.engine.call_at(start_time, lambda: self._begin_maintenance(notice))
        return notice

    def _begin_maintenance(self, notice: MaintenanceNotice) -> None:
        stopped = 0
        if notice.impact is MaintenanceImpact.NETWORK_LOSS:
            if self._machine_network_hook is not None:
                for machine_id in notice.machine_ids:
                    self._machine_network_hook(machine_id, False)
            self.engine.call_at(notice.end_time,
                                lambda: self._end_network_maintenance(notice))
        else:
            # Runtime/full state loss and machine loss all take the machine
            # down; they differ in what the *application* must rebuild.
            # Each window holds the machine under its own notice id, so an
            # overlapping crash (or second window) cannot double-stop
            # containers or end this window early.
            for machine_id in notice.machine_ids:
                stopped += self._take_machine_down(
                    machine_id, f"maint:{notice.notice_id}", planned=True)
            self.engine.call_at(notice.end_time,
                                lambda: self._end_machine_maintenance(notice))
        on_begin = self._maint_on_begin.pop(notice.notice_id, None)
        if on_begin is not None:
            on_begin(notice, stopped)

    def _end_network_maintenance(self, notice: MaintenanceNotice) -> None:
        if self._machine_network_hook is not None:
            for machine_id in notice.machine_ids:
                # A machine that crashed during the window keeps its
                # endpoints down; its repair will bring them back.
                if self._machine(machine_id).up:
                    self._machine_network_hook(machine_id, True)

    def _end_machine_maintenance(self, notice: MaintenanceNotice) -> None:
        for machine_id in notice.machine_ids:
            self._release_machine(machine_id, f"maint:{notice.notice_id}")
