"""Legacy sharding schemes expressed as allocators.

The §2.2.1 baselines (static modulo sharding, consistent hashing) decide
placement by a *formula over membership*, never by load.  To compare
them against SM's solver on equal footing, :class:`PinnedAllocator`
plugs that formula into the ordinary orchestrator: every shard has one
pinned target address computed from the set of usable servers, the
emergency path creates missing shards at their pin, and the periodic
path moves drifted shards back to it.  All three arms of the skew
experiment therefore share the identical control plane, migration
machinery and journal instrumentation — only the placement rule differs.

A pin only changes when membership changes (a server dies or returns),
so in steady state a pinned arm plans zero moves; it simply never reacts
to load, which is exactly the §2.2.1 failure mode under hot-key skew.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.allocator import (
    AllocationPlan,
    Allocator,
    CreateReplica,
    LoadFn,
    MoveReplica,
    ServerRecord,
)
from ..core.shard_map import AssignmentTable, ReplicaState, Role
from .consistent_hashing import ConsistentHashRing

#: placement(shard_index, shard_id, sorted usable addresses) -> address
PlacementFn = Callable[[int, str, Sequence[str]], str]


def modulo_placement(index: int, shard_id: str,
                     addresses: Sequence[str]) -> str:
    """Static sharding: shard i lives on server ``i % n`` (§2.2.1)."""
    return addresses[index % len(addresses)]


def ring_placement(virtual_nodes: int = 64) -> PlacementFn:
    """Consistent hashing: shard i lives at the ring successor of its
    hash.  The ring is rebuilt (and memoized) per membership set, so a
    node loss moves only the lost node's shards — the scheme's selling
    point — while everything else stays put."""
    rings: Dict[Tuple[str, ...], ConsistentHashRing] = {}

    def placement(index: int, shard_id: str,
                  addresses: Sequence[str]) -> str:
        key = tuple(addresses)
        ring = rings.get(key)
        if ring is None:
            ring = rings[key] = ConsistentHashRing(
                key, virtual_nodes=virtual_nodes)
        return ring.node_for_key(index)

    return placement


class PinnedAllocator(Allocator):
    """Places every shard at ``placement(shard)`` — no load input at all.

    Designed for ``replica_count == 1`` primary-only baseline apps (the
    schemes it models have no replica concept); extra replicas, if any,
    are left to the base emergency logic untouched.
    """

    def __init__(self, spec, placement: PlacementFn, **kwargs) -> None:
        super().__init__(spec, **kwargs)
        self.placement = placement
        self._shard_index = {shard.shard_id: i
                             for i, shard in enumerate(spec.shards)}

    def _usable_addresses(self, servers: Dict[str, ServerRecord],
                          now: float) -> List[str]:
        return sorted(r.address for r in servers.values() if r.usable(now))

    def emergency_plan(self, table: AssignmentTable,
                       servers: Dict[str, ServerRecord], now: float,
                       load_of=None) -> AllocationPlan:
        """Create missing shards directly at their pinned address."""
        plan = super().emergency_plan(table, servers, now, load_of)
        if not plan.creates:
            return plan
        addresses = self._usable_addresses(servers, now)
        index = self._shard_index
        plan.creates = [
            CreateReplica(shard_id=c.shard_id,
                          address=self.placement(index[c.shard_id],
                                                 c.shard_id, addresses),
                          role=c.role)
            for c in plan.creates]
        return plan

    def periodic_plan(self, table: AssignmentTable,
                      servers: Dict[str, ServerRecord], now: float,
                      load_of: LoadFn) -> AllocationPlan:
        """Move any shard that has drifted off its pin back onto it."""
        plan = AllocationPlan()
        addresses = self._usable_addresses(servers, now)
        if not addresses:
            return plan
        for index, shard in enumerate(self.spec.shards):
            target = self.placement(index, shard.shard_id, addresses)
            live = [r for r in table.replicas_of(shard.shard_id)
                    if r.state is not ReplicaState.DROPPED]
            if not live or any(r.address == target for r in live):
                continue
            primary = next((r for r in live if r.role is Role.PRIMARY),
                           live[0])
            if primary.state is not ReplicaState.READY:
                continue  # mid-migration; re-pin next round
            if len(plan.moves) >= self.max_moves_per_round:
                break
            plan.moves.append(MoveReplica(
                shard_id=shard.shard_id,
                replica_id=primary.replica_id,
                from_address=primary.address,
                to_address=target,
                role=primary.role,
            ))
        return plan
