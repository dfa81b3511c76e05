"""SM's TaskController: negotiates container lifecycle ops with Twine (§4).

The controller enforces the application's preconfigured policy:

1. drain shards out of an impacted container, or leave them, per the
   drain policy;
2. a global cap on concurrent container operations;
3. a per-shard cap on simultaneously-unavailable replicas —
   both caps counting replicas already unavailable from unplanned outages.

One controller instance registers with *every* regional Twine hosting the
application, which is what prevents "two independent container restarts in
two geographic regions from accidentally bringing down two replicas of the
same shard" (§1.1, §4.1).

Non-negotiable maintenance notices (§4.2) are handled by proactively
draining (or demoting primaries on) the affected machines before the
event starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Generator, List, Optional, Sequence, Set

from ..cluster.taskcontrol import (
    ContainerOp,
    MaintenanceImpact,
    MaintenanceNotice,
)
from ..sim.engine import Engine
from .orchestrator import Orchestrator
from .shard_map import Role


class _DrainPhase(str, Enum):
    RUNNING = "running"
    DONE = "done"


@dataclass
class _DrainState:
    phase: _DrainPhase
    address: str


@dataclass
class SMTaskControllerConfig:
    restart_duration_hint: float = 120.0  # failover-suppression window


class SMTaskController:
    """The controller registered with one or more Twine instances."""

    def __init__(self, engine: Engine, orchestrator: Orchestrator,
                 config: Optional[SMTaskControllerConfig] = None) -> None:
        self.engine = engine
        self.orchestrator = orchestrator
        self.config = config or SMTaskControllerConfig()
        self.spec = orchestrator.spec
        self._in_flight: Dict[str, ContainerOp] = {}
        self._impacted_shards: Dict[str, Set[str]] = {}
        self._drains: Dict[str, _DrainState] = {}
        self.approved_total = 0
        self.delayed_total = 0

    def rebind(self, orchestrator: Orchestrator) -> None:
        """Point the controller at a successor orchestrator incarnation.

        Registered Twines keep their controller reference across a
        control-plane failover; only the orchestrator behind it changes.
        In-flight op bookkeeping survives — the ops are still running.
        """
        self.orchestrator = orchestrator
        self.spec = orchestrator.spec

    # -- the TaskControl protocol ---------------------------------------------------

    def review_ops(self, ops: Sequence[ContainerOp]) -> List[ContainerOp]:
        """Return the subset of ``ops`` that is safe to execute right now.

        "Guided by SM's knowledge of the shard-to-container assignment,
        the TaskController carefully calculates a maximum set of container
        operations that do not violate either the global cap or the
        per-shard cap" (§4.1).  We approve greedily in order, which yields
        a maximal (not necessarily maximum) safe set.
        """
        approved: List[ContainerOp] = []
        # Per-shard unavailability this round starts from live state:
        # replicas down from failures plus replicas on containers whose
        # approved op has not finished yet.
        planned_unavailable: Dict[str, int] = {}
        for op in self._in_flight.values():
            for shard_id in self._impacted_shards.get(op.op_id, ()):
                planned_unavailable[shard_id] = (
                    planned_unavailable.get(shard_id, 0) + 1)
        # Drains count against the global cap too: draining every container
        # at once would leave the allocator nowhere to put the shards.
        active_drains = sum(1 for state in self._drains.values()
                            if state.phase is _DrainPhase.RUNNING)

        for op in ops:
            if op.op_id in self._in_flight:
                continue
            if (len(self._in_flight) + len(approved)
                    >= self.spec.max_concurrent_container_ops):
                self.delayed_total += 1
                continue
            address = op.container.address
            shards_left = self.orchestrator.shards_on(address)
            needs_drain = self._needs_drain(address)
            if needs_drain and shards_left:
                drain = self._drains.get(address)
                if drain is None:
                    if (active_drains + len(self._in_flight) + len(approved)
                            < self.spec.max_concurrent_container_ops):
                        self._start_drain(address)
                        active_drains += 1
                elif drain.phase is _DrainPhase.DONE:
                    # The drain ran out of placement targets and finished
                    # with shards left behind; retry on the next tick.
                    self._drains.pop(address, None)
                    self.orchestrator.undrain_address(address)
                self.delayed_total += 1
                continue  # approve once the drain has emptied the container
            # Safety check on whatever replicas remain on the container.
            impacted = set(shards_left)
            if self._violates_shard_cap(impacted, planned_unavailable):
                self.delayed_total += 1
                continue
            for shard_id in impacted:
                planned_unavailable[shard_id] = (
                    planned_unavailable.get(shard_id, 0) + 1)
            self._in_flight[op.op_id] = op
            self._impacted_shards[op.op_id] = impacted
            if impacted:
                # Shards stay on the container through the restart (no-drain
                # policy): tell the orchestrator this downtime is planned.
                self.orchestrator.expect_restart(
                    address, self.config.restart_duration_hint)
            approved.append(op)
            self.approved_total += 1
        return approved

    def on_op_finished(self, op: ContainerOp) -> None:
        self._in_flight.pop(op.op_id, None)
        self._impacted_shards.pop(op.op_id, None)
        address = op.container.address
        drain = self._drains.pop(address, None)
        if drain is not None:
            self.orchestrator.undrain_address(address)

    # -- drain handling ----------------------------------------------------------------

    def _needs_drain(self, address: str) -> bool:
        policy = self.spec.drain_policy
        if not (policy.drain_primaries or policy.drain_secondaries):
            return False
        for replica in self.orchestrator.table.on_address(address):
            if policy.drains(replica.role):
                return True
        return False

    def _start_drain(self, address: str) -> None:
        self._drains[address] = _DrainState(
            phase=_DrainPhase.RUNNING, address=address)
        process = self.orchestrator.drain_address(address)

        def mark_done(_value: Any) -> None:
            state = self._drains.get(address)
            if state is not None:
                state.phase = _DrainPhase.DONE

        process.on_done(mark_done)

    # -- cap accounting ------------------------------------------------------------------

    def _violates_shard_cap(self, impacted: Set[str],
                            planned_unavailable: Dict[str, int]) -> bool:
        cap = self.spec.max_unavailable_replicas_per_shard
        for shard_id in impacted:
            already = self.orchestrator.unavailable_count(shard_id)
            planned = planned_unavailable.get(shard_id, 0)
            if already + planned + 1 > cap:
                return True
        return False

    # -- non-negotiable events (§4.2) ------------------------------------------------------

    def on_maintenance_notice(self, notice: MaintenanceNotice) -> None:
        """Proactively prepare the affected machines before the event.

        * machine-impacting events: drain per the drain policy;
        * NETWORK_LOSS: leave secondaries, demote primaries and promote
          their replicas on unaffected machines.
        """
        machine_ids = set(notice.machine_ids)
        addresses = [record.address
                     for record in self.orchestrator.servers.values()
                     if record.machine.machine_id in machine_ids
                     and record.alive]
        for address in addresses:
            if notice.impact is MaintenanceImpact.NETWORK_LOSS:
                self.engine.process(self._demote_primaries_on(address),
                                    name=f"maint-demote:{address}")
                self.orchestrator.expect_restart(
                    address, max(0.0, notice.end_time - self.engine.now))
            else:
                if self._needs_drain(address):
                    if address not in self._drains:
                        self._start_drain(address)
                else:
                    self.orchestrator.expect_restart(
                        address, max(0.0, notice.end_time - self.engine.now))

    def _demote_primaries_on(self, address: str) -> Generator[Any, Any, None]:
        """§4.2's example: for a short network loss, "SM may allow secondary
        replicas to stay on the affected machines and demote the primary
        replicas ... while promoting their corresponding secondary replicas
        on unaffected machines"."""
        table = self.orchestrator.table
        for replica in list(table.on_address(address)):
            if replica.role is not Role.PRIMARY:
                continue
            siblings = [r for r in table.replicas_of(replica.shard_id)
                        if r.replica_id != replica.replica_id
                        and r.available and r.address != address]
            if not siblings:
                continue
            ok = yield from self.orchestrator.executor.change_role(
                replica, Role.SECONDARY)
            if ok:
                yield from self.orchestrator.executor.change_role(
                    siblings[0], Role.PRIMARY)
