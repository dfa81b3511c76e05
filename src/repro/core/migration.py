"""Shard-migration execution, including §4.3 graceful primary migration.

The :class:`MigrationExecutor` turns allocator actions into orchestrated
RPC sequences against application servers.  The graceful primary path is
the paper's five-step protocol:

1. ``prepare_add_shard`` → the new primary accepts only forwarded requests;
2. ``prepare_drop_shard`` → the old primary forwards everything;
3. ``add_shard``          → the new primary officially owns the shard;
4. publish the new shard map via service discovery;
5. ``drop_shard``         → the old primary drains its forwarding and drops.

"Throughout the migration process, no client request is dropped."  The
executor also provides the *non-graceful* variant (drop-then-add with a
routing gap) used as the ablation arm in Figure 17, plus plain secondary
moves, replica creation and role changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..sim.engine import Engine
from ..sim.network import Network, RpcResult
from .shard_map import AssignmentTable, ReplicaAssignment, ReplicaState, Role


@dataclass
class MigrationStats:
    """Counters surfaced to experiments (shard-move spikes in Fig 18/20)."""

    graceful_migrations: int = 0
    abrupt_migrations: int = 0
    secondary_moves: int = 0
    creates: int = 0
    drops: int = 0
    role_changes: int = 0
    failures: int = 0

    @property
    def total_moves(self) -> int:
        return (self.graceful_migrations + self.abrupt_migrations
                + self.secondary_moves)


class MigrationExecutor:
    """Executes assignment changes with direct orchestrator→server RPCs.

    "The SM orchestrator makes direct RPC calls to application servers to
    precisely control the operation sequence" — which is exactly what lets
    it do live migration that Slicer cannot (§4.3).
    """

    def __init__(self, engine: Engine, network: Network, self_address: str,
                 table: AssignmentTable, publish: Callable[[], None],
                 rpc_timeout: float = 1.0,
                 move_report: Optional[Callable[[int], None]] = None) -> None:
        self.engine = engine
        self.network = network
        self.self_address = self_address
        self.table = table
        self.publish = publish
        self.rpc_timeout = rpc_timeout
        self.stats = MigrationStats()
        self._move_report = move_report
        self._tracer = network.tracer

    # -- tracing helpers (no-ops when the tracer is disabled) -------------------

    def _trace_begin(self, kind: str, shard_id: str, src: str,
                     dst: str) -> int:
        """Open a migration span; returns 0 (skip tracing) when disabled,
        so call sites guard phase/end emission with ``if span:``."""
        tracer = self._tracer
        if not tracer.enabled:
            return 0
        return tracer.begin("migration", kind, self.engine.now,
                            {"shard": shard_id, "from": src, "to": dst})

    def _trace_phase(self, span: int, phase: str) -> None:
        if span:
            self._tracer.instant("migration", "phase", self.engine.now,
                                 {"span": span, "phase": phase})

    def _trace_end(self, span: int, kind: str, outcome: str) -> None:
        if span:
            self._tracer.end(span, self.engine.now, {"outcome": outcome},
                             track="migration", name=kind)

    def _rpc(self, address: str, method: str, payload: Any):
        return self.network.rpc(self.self_address, address, method, payload,
                                timeout=self.rpc_timeout)

    def _record_moves(self, count: int = 1) -> None:
        if self._move_report is not None:
            self._move_report(count)

    def _hosts_sibling(self, shard_id: str, address: str,
                       exclude_replica_id: str = "") -> bool:
        """SM invariant: one server never hosts two replicas of a shard
        (the server-side hosting table is keyed by shard id)."""
        return any(r.address == address
                   and r.replica_id != exclude_replica_id
                   for r in self.table.replicas_of(shard_id))

    # -- replica creation ------------------------------------------------------

    def create_replica(self, shard_id: str, address: str,
                       role: Role) -> Generator[Any, Any, bool]:
        """add_shard on a fresh target; table updated on acknowledgement."""
        if self._hosts_sibling(shard_id, address):
            self.stats.failures += 1
            return False
        result: RpcResult = yield self._rpc(
            address, "sm.add_shard",
            {"shard_id": shard_id, "role": role.value})
        if not result.ok:
            self.stats.failures += 1
            return False
        replica = self.table.add(shard_id, address, role,
                                 state=ReplicaState.READY)
        self.stats.creates += 1
        self.publish()
        return True

    def drop_replica(self, replica: ReplicaAssignment) -> Generator[Any, Any, bool]:
        result: RpcResult = yield self._rpc(
            replica.address, "sm.drop_shard", {"shard_id": replica.shard_id})
        # Drop from the table regardless: if the server is unreachable its
        # replica is gone anyway.
        self.table.drop(replica.replica_id)
        self.stats.drops += 1
        self.publish()
        return result.ok

    # -- role changes -------------------------------------------------------------

    def change_role(self, replica: ReplicaAssignment,
                    new_role: Role) -> Generator[Any, Any, bool]:
        result: RpcResult = yield self._rpc(
            replica.address, "sm.change_role",
            {"shard_id": replica.shard_id,
             "current_role": replica.role.value,
             "new_role": new_role.value})
        if not result.ok:
            self.stats.failures += 1
            return False
        self.table.set_role(replica.replica_id, new_role)
        self.stats.role_changes += 1
        self.publish()
        return True

    def promote(self, replica: ReplicaAssignment) -> Generator[Any, Any, bool]:
        """Secondary → primary, demoting the current primary first if any."""
        current = self.table.primary_of(replica.shard_id)
        if current is not None and current.replica_id != replica.replica_id:
            demoted = yield from self.change_role(current, Role.SECONDARY)
            if not demoted:
                return False
        ok = yield from self.change_role(replica, Role.PRIMARY)
        return ok

    # -- migrations ---------------------------------------------------------------------

    def graceful_primary_migration(self, old: ReplicaAssignment,
                                   target_address: str
                                   ) -> Generator[Any, Any, bool]:
        """§4.3's five-step zero-downtime handover."""
        shard_id = old.shard_id
        if self._hosts_sibling(shard_id, target_address, old.replica_id):
            self.stats.failures += 1
            return False
        span = self._trace_begin("graceful", shard_id, old.address,
                                 target_address)
        # Step 1: prepare the new primary.  It is tracked as a PREPARING
        # secondary until the official handover (the table allows only one
        # primary at a time).
        result: RpcResult = yield self._rpc(
            target_address, "sm.prepare_add_shard",
            {"shard_id": shard_id, "current_owner": old.address,
             "role": Role.PRIMARY.value})
        if not result.ok:
            self.stats.failures += 1
            self._trace_end(span, "graceful", "abort_prepare")
            return False
        new = self.table.add(shard_id, target_address, Role.SECONDARY,
                             state=ReplicaState.PREPARING)
        self._trace_phase(span, "prepare")

        # Step 2: the old primary starts forwarding.
        result = yield self._rpc(
            old.address, "sm.prepare_drop_shard",
            {"shard_id": shard_id, "new_owner": target_address,
             "role": Role.PRIMARY.value})
        if not result.ok:
            # The old primary may have just died; abort and let failure
            # handling recreate the shard.  Remove the prepared target.
            yield from self._abort_prepared(new)
            self._trace_end(span, "graceful", "abort_forward")
            return False
        self._trace_phase(span, "forward")

        # Step 3: official handover.
        result = yield self._rpc(
            target_address, "sm.add_shard",
            {"shard_id": shard_id, "role": Role.PRIMARY.value})
        if not result.ok:
            # Target died mid-migration: reinstate the old primary.
            yield from self._reinstate(old)
            self.table.drop(new.replica_id)
            self.stats.failures += 1
            self._trace_end(span, "graceful", "abort_handoff")
            return False
        self.table.set_role(old.replica_id, Role.SECONDARY)
        self.table.set_state(old.replica_id, ReplicaState.DRAINING)
        self.table.set_role(new.replica_id, Role.PRIMARY)
        self.table.set_state(new.replica_id, ReplicaState.READY)
        self._trace_phase(span, "handoff")

        # Step 4: disseminate the new map; clients start hitting the new
        # primary, stale ones are served by forwarding.
        self.publish()
        self._trace_phase(span, "publish")

        # Step 5: drop the old replica; the server keeps forwarding through
        # its grace period for stale in-flight traffic.
        yield self._rpc(old.address, "sm.drop_shard", {"shard_id": shard_id})
        self.table.drop(old.replica_id)
        self._trace_phase(span, "drop_old")
        self.stats.graceful_migrations += 1
        self._record_moves()
        self._trace_end(span, "graceful", "ok")
        return True

    def _abort_prepared(self, prepared: ReplicaAssignment
                        ) -> Generator[Any, Any, None]:
        yield self._rpc(prepared.address, "sm.drop_shard",
                        {"shard_id": prepared.shard_id})
        self.table.drop(prepared.replica_id)
        self.stats.failures += 1

    def _reinstate(self, old: ReplicaAssignment) -> Generator[Any, Any, None]:
        """Cancel forwarding on the old primary after a failed handover."""
        yield self._rpc(old.address, "sm.add_shard",
                        {"shard_id": old.shard_id, "role": old.role.value})
        self.publish()

    def abrupt_primary_migration(self, old: ReplicaAssignment,
                                 target_address: str
                                 ) -> Generator[Any, Any, bool]:
        """The Fig 17 ablation: drop-then-add with no forwarding.

        Requests racing the map update get NotOwner/timeout errors — this
        is what existing frameworks' shard failover looks like during a
        planned migration.
        """
        shard_id = old.shard_id
        if self._hosts_sibling(shard_id, target_address, old.replica_id):
            self.stats.failures += 1
            return False
        span = self._trace_begin("abrupt", shard_id, old.address,
                                 target_address)
        # Reserve the target in the table first so concurrent emergency
        # placement doesn't race us into creating a second primary.
        new = self.table.add(shard_id, target_address, Role.SECONDARY,
                             state=ReplicaState.PENDING)
        yield self._rpc(old.address, "sm.drop_shard", {"shard_id": shard_id})
        self.table.drop(old.replica_id)
        self.publish()
        self._trace_phase(span, "drop_old")
        result: RpcResult = yield self._rpc(
            target_address, "sm.add_shard",
            {"shard_id": shard_id, "role": Role.PRIMARY.value})
        if not result.ok:
            self.table.drop(new.replica_id)
            self.stats.failures += 1
            self._trace_end(span, "abrupt", "abort_handoff")
            return False
        if self.table.primary_of(shard_id) is None:
            self.table.set_role(new.replica_id, Role.PRIMARY)
        self.table.set_state(new.replica_id, ReplicaState.READY)
        self.publish()
        self._trace_phase(span, "handoff")
        self.stats.abrupt_migrations += 1
        self._record_moves()
        self._trace_end(span, "abrupt", "ok")
        return True

    def move_secondary(self, replica: ReplicaAssignment,
                       target_address: str) -> Generator[Any, Any, bool]:
        """Make-before-break secondary move (no forwarding needed: reads
        can go to any replica while both exist)."""
        shard_id = replica.shard_id
        if self._hosts_sibling(shard_id, target_address, replica.replica_id):
            self.stats.failures += 1
            return False
        span = self._trace_begin("secondary", shard_id, replica.address,
                                 target_address)
        result: RpcResult = yield self._rpc(
            target_address, "sm.add_shard",
            {"shard_id": shard_id, "role": Role.SECONDARY.value})
        if not result.ok:
            self.stats.failures += 1
            self._trace_end(span, "secondary", "abort_add")
            return False
        self.table.add(shard_id, target_address, Role.SECONDARY,
                       state=ReplicaState.READY)
        self.publish()
        self._trace_phase(span, "add_new")
        yield self._rpc(replica.address, "sm.drop_shard",
                        {"shard_id": shard_id})
        self.table.drop(replica.replica_id)
        self.publish()
        self._trace_phase(span, "drop_old")
        self.stats.secondary_moves += 1
        self._record_moves()
        self._trace_end(span, "secondary", "ok")
        return True
