"""ZippyDB: a Paxos-based replicated key-value store on SM (§2.5).

"Each ZippyDB shard has a primary serving as the Paxos leader and
proposer, and multiple secondaries serving as acceptors and learners.
Shard replicas can be placed at different regions for high availability."

This example exercises data-persistency option 5 (§2.4) end to end on the
simulated network:

* every replica of a shard runs a :class:`~repro.replication.paxos.Acceptor`;
* the SM-elected primary is the Multi-Paxos leader: on its first write it
  runs a ranged prepare (``zippydb.lead``) to all replicas, adopting any
  accepted-but-unchosen entries, then appends with single accept rounds;
* writes commit on a majority quorum; chosen entries are broadcast to
  learners and applied to each replica's key-value state in slot order;
* reads are served locally by any replica (eventually consistent) —
  exactly the consistency ZippyDB's default read mode offers.

Primary failover safety: a new leader's ranged prepare carries a higher
ballot, collects accepted entries from a quorum, and re-proposes them, so
any write that reached a majority survives the failover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..app.server import ApplicationServer
from ..core.shard_map import Role, ShardMap
from ..core.spec import AppSpec
from ..discovery.service_discovery import ServiceDiscovery
from ..replication.paxos import Accepted, Acceptor, Ballot
from ..sim.engine import Engine
from ..sim.network import AsyncReply, Network, RpcResult
from ..cluster.container import Container


@dataclass
class _ShardReplicaState:
    """Per (server, shard) replication state."""

    acceptor: Acceptor
    chosen: Dict[int, Any] = field(default_factory=dict)
    applied_through: int = -1
    store: Dict[int, Any] = field(default_factory=dict)
    # Leader-side state (only used while this replica is primary).
    # Writes are serialized through a per-shard queue: one lead round,
    # then accept rounds in order — classic Multi-Paxos at a stable leader.
    leader_ballot: Optional[Ballot] = None
    next_slot: int = 0
    write_queue: List[Tuple[Dict[str, Any], AsyncReply]] = field(
        default_factory=list)
    writer_running: bool = False


@dataclass
class _ServerNode:
    server: ApplicationServer
    shards: Dict[str, _ShardReplicaState] = field(default_factory=dict)


class ZippyDBApp:
    """Wires ZippyDB's replication into SM application servers."""

    def __init__(self, engine: Engine, network: Network,
                 discovery: ServiceDiscovery, spec: AppSpec,
                 rpc_timeout: float = 0.5) -> None:
        self.engine = engine
        self.network = network
        self.spec = spec
        self.rpc_timeout = rpc_timeout
        self._nodes: Dict[str, _ServerNode] = {}
        self._map: Optional[ShardMap] = None
        self._ballot_counter = itertools.count(1)
        discovery.subscribe(spec.name, self._on_map)
        self.commits = 0
        self.failed_writes = 0
        self.lead_rounds = 0

    def _on_map(self, shard_map: ShardMap) -> None:
        if self._map is None or shard_map.version > self._map.version:
            self._map = shard_map

    # -- wiring (pass to deploy_app) ---------------------------------------------

    def handler_factory(self, container: Container):
        address = container.address

        def handler(shard_id: str, request: Dict[str, Any]) -> Any:
            return self._handle(address, shard_id, request or {})

        return handler

    def on_server_created(self, server: ApplicationServer) -> None:
        node = _ServerNode(server=server)
        self._nodes[server.address] = node
        server.endpoint.on("zippydb.lead",
                           lambda p: self._rpc_lead(server.address, p))
        server.endpoint.on("zippydb.accept",
                           lambda p: self._rpc_accept(server.address, p))
        server.endpoint.on("zippydb.learn",
                           lambda p: self._rpc_learn(server.address, p))

    # -- replica state ------------------------------------------------------------

    def _state(self, address: str, shard_id: str) -> _ShardReplicaState:
        node = self._nodes[address]
        state = node.shards.get(shard_id)
        if state is None:
            state = _ShardReplicaState(
                acceptor=Acceptor(f"{address}/{shard_id}"))
            node.shards[shard_id] = state
        return state

    def _replica_addresses(self, shard_id: str) -> List[str]:
        if self._map is None:
            return []
        try:
            entry = self._map.entry(shard_id)
        except KeyError:
            return []
        return list(entry.all_addresses())

    # -- acceptor/learner RPCs --------------------------------------------------------

    def _rpc_lead(self, address: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        state = self._state(address, payload["shard_id"])
        ok, promised, accepted = state.acceptor.on_prepare_range(
            payload["from_slot"], payload["ballot"])
        return {"ok": ok, "promised": promised, "accepted": accepted}

    def _rpc_accept(self, address: str, payload: Dict[str, Any]) -> Accepted:
        state = self._state(address, payload["shard_id"])
        return state.acceptor.on_accept(payload["slot"], payload["ballot"],
                                        payload["value"])

    def _rpc_learn(self, address: str, payload: Dict[str, Any]) -> str:
        state = self._state(address, payload["shard_id"])
        self._learn(state, payload["slot"], payload["value"])
        return "ok"

    def _learn(self, state: _ShardReplicaState, slot: int, value: Any) -> None:
        state.chosen.setdefault(slot, value)
        # Apply the contiguous chosen prefix in slot order.
        while state.applied_through + 1 in state.chosen:
            state.applied_through += 1
            command = state.chosen[state.applied_through]
            if command is not None and command.get("op") == "put":
                state.store[command["key"]] = command["value"]

    # -- client requests ------------------------------------------------------------------

    def _handle(self, address: str, shard_id: str,
                request: Dict[str, Any]) -> Any:
        op = request.get("op")
        if op == "get":
            state = self._state(address, shard_id)
            return {"ok": True, "value": state.store.get(request["key"]),
                    "applied_through": state.applied_through}
        if op == "put":
            server = self._nodes[address].server
            hosted = server.hosted(shard_id)
            if hosted is None or hosted.role is not Role.PRIMARY:
                raise PermissionError(
                    f"{address} is not the primary of {shard_id}")
            reply = AsyncReply()
            state = self._state(address, shard_id)
            state.write_queue.append((request, reply))
            if not state.writer_running:
                state.writer_running = True
                self.engine.process(
                    self._writer(address, shard_id, state),
                    name=f"zippydb:writer:{shard_id}")
            return reply
        raise ValueError(f"unknown op {op!r}")

    def _writer(self, address: str, shard_id: str,
                state: _ShardReplicaState) -> Generator[Any, Any, None]:
        """Drains the shard's write queue in order at the leader."""
        try:
            while state.write_queue:
                request, reply = state.write_queue.pop(0)
                yield from self._replicate(address, shard_id, request, reply)
        finally:
            state.writer_running = False

    # -- the replication protocol (leader side) -----------------------------------------------

    def _quorum(self, replica_addresses: List[str]) -> int:
        return len(replica_addresses) // 2 + 1

    def _broadcast(self, source: str, targets: List[str], method: str,
                   payload: Dict[str, Any]) -> List:
        """Issue one RPC per remote target (local target handled directly);
        returns the list of RpcCalls plus local results."""
        calls = []
        for target in targets:
            if target == source:
                continue
            calls.append(self.network.rpc(source, target, method, payload,
                                          timeout=self.rpc_timeout))
        return calls

    def _replicate(self, address: str, shard_id: str,
                   request: Dict[str, Any],
                   reply: AsyncReply) -> Generator[Any, Any, None]:
        state = self._state(address, shard_id)
        replicas = self._replica_addresses(shard_id)
        if address not in replicas:
            replicas = [address] + replicas
        quorum = self._quorum(replicas)

        if state.leader_ballot is None:
            became_leader = yield from self._lead(address, shard_id, state,
                                                  replicas, quorum)
            if not became_leader:
                self.failed_writes += 1
                reply.fail("no quorum for leadership")
                return

        command = {"op": "put", "key": request["key"],
                   "value": request["value"]}
        slot = state.next_slot
        state.next_slot += 1
        ballot = state.leader_ballot
        payload = {"shard_id": shard_id, "slot": slot, "ballot": ballot,
                   "value": command}
        # Local accept first, then remote acceptors.
        local = state.acceptor.on_accept(slot, ballot, command)
        acks = 1 if local.ok else 0
        calls = self._broadcast(address, replicas, "zippydb.accept", payload)
        for call in calls:
            result: RpcResult = yield call
            if result.ok and isinstance(result.value, Accepted) and result.value.ok:
                acks += 1
        if acks < quorum:
            # Lost leadership or too many replicas unreachable.
            state.leader_ballot = None
            self.failed_writes += 1
            reply.fail("no quorum")
            return
        # Chosen: learn locally and broadcast to learners (no need to wait).
        self._learn(state, slot, command)
        learn_payload = {"shard_id": shard_id, "slot": slot, "value": command}
        self._broadcast(address, replicas, "zippydb.learn", learn_payload)
        self.commits += 1
        reply.complete({"ok": True, "slot": slot})

    def _lead(self, address: str, shard_id: str, state: _ShardReplicaState,
              replicas: List[str], quorum: int) -> Generator[Any, Any, bool]:
        """Ranged prepare: become the Multi-Paxos leader for this shard."""
        self.lead_rounds += 1
        ballot = Ballot(round=next(self._ballot_counter), proposer=address)
        from_slot = 0
        payload = {"shard_id": shard_id, "ballot": ballot,
                   "from_slot": from_slot}
        ok_local, _promised, local_accepted = state.acceptor.on_prepare_range(
            from_slot, ballot)
        promises = 1 if ok_local else 0
        accepted_entries: List[Tuple[int, Ballot, Any]] = list(local_accepted)
        calls = self._broadcast(address, replicas, "zippydb.lead", payload)
        for call in calls:
            result: RpcResult = yield call
            if result.ok and result.value.get("ok"):
                promises += 1
                accepted_entries.extend(result.value.get("accepted", []))
        if promises < quorum:
            return False
        state.leader_ballot = ballot
        # Re-propose accepted-but-possibly-unchosen entries: for each slot,
        # the value with the highest accept ballot wins.
        by_slot: Dict[int, Tuple[Ballot, Any]] = {}
        for slot, acc_ballot, value in accepted_entries:
            current = by_slot.get(slot)
            if current is None or current[0] < acc_ballot:
                by_slot[slot] = (acc_ballot, value)
        max_slot = -1
        for slot in sorted(by_slot):
            _old_ballot, value = by_slot[slot]
            accept_payload = {"shard_id": shard_id, "slot": slot,
                              "ballot": ballot, "value": value}
            local = state.acceptor.on_accept(slot, ballot, value)
            acks = 1 if local.ok else 0
            calls = self._broadcast(address, replicas, "zippydb.accept",
                                    accept_payload)
            for call in calls:
                result: RpcResult = yield call
                if (result.ok and isinstance(result.value, Accepted)
                        and result.value.ok):
                    acks += 1
            if acks >= quorum:
                self._learn(state, slot, value)
                self._broadcast(address, replicas, "zippydb.learn",
                                {"shard_id": shard_id, "slot": slot,
                                 "value": value})
            max_slot = max(max_slot, slot)
        state.next_slot = max_slot + 1
        return True
