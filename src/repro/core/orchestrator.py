"""The SM orchestrator (§3.2): the brain of one application partition.

Responsibilities, each mapped to the paper:

* watch SM-library-created ephemeral ZooKeeper nodes to detect
  application-server joins and failures (§3.2);
* collect per-shard load from application servers (§3.2) — a read of
  each server's report at every poll tick, and only when some LB metric
  needs one;
* run the allocator in emergency mode when shards are unavailable and in
  periodic mode on a timer (§5.1), executing the resulting plan through
  the :class:`~repro.core.migration.MigrationExecutor`;
* publish versioned shard maps through service discovery and mirror
  per-server assignments into ZooKeeper for §3.2's bootstrap path;
* expose drain / undrain / expect-restart hooks used by SM's
  TaskController to gracefully handle planned events (§4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..cluster.topology import Topology
from ..coordination import layout
from ..coordination.zookeeper import WatchEvent, ZooKeeper
from ..discovery.service_discovery import ServiceDiscovery
from ..metrics.timeseries import Counter
from ..obs import NO_TRACER, get_default
from ..sim.engine import Delay, Engine, Process, every
from ..sim.network import Network
from ..solver.local_search import SearchConfig
from .allocator import (
    Allocator, AllocationPlan, CreateReplica, MoveReplica, ServerRecord)
from .migration import MigrationExecutor
from .shard_map import (
    VALUE_OF, AssignmentTable, ReplicaAssignment, ReplicaState, Role)
from .spec import AppSpec

#: Region the orchestrator's own endpoint registers in.
CONTROL_REGION = "FRC"
#: Dirty marks within this window coalesce into one map publish.
PUBLISH_MIN_INTERVAL = 0.25
#: Period of the unavailable-shard check that triggers emergency plans.
EMERGENCY_CHECK_INTERVAL = 5.0
#: Worker processes per emergency-create or rebalance-move batch.
MAX_CONCURRENT_MIGRATIONS = 16


@dataclass
class OrchestratorConfig:
    """Timing and behaviour knobs."""

    load_poll_interval: float = 10.0
    rebalance_interval: float = 30.0
    failover_grace: float = 30.0
    graceful_migration: bool = True   # Fig 17 ablation arm sets False
    drain_concurrency: int = 4
    drain_pacing: float = 0.0         # extra seconds between drain migrations
    max_moves_per_round: int = 64
    search_config: SearchConfig = field(default_factory=SearchConfig)


def _serialize_replica(replica: ReplicaAssignment) -> Dict[str, str]:
    return {"replica_id": replica.replica_id, "shard_id": replica.shard_id,
            "address": replica.address, "role": VALUE_OF[replica.role],
            "state": VALUE_OF[replica.state]}


class Orchestrator:
    """Control plane for one application (one partition of one app)."""

    def __init__(self, engine: Engine, network: Network, zookeeper: ZooKeeper,
                 discovery: ServiceDiscovery, spec: AppSpec,
                 topology: Topology,
                 config: Optional[OrchestratorConfig] = None,
                 rng: Optional[random.Random] = None,
                 obs=None) -> None:
        self.engine = engine
        self.network = network
        self.zookeeper = zookeeper
        self.discovery = discovery
        self.spec = spec
        self.topology = topology
        self.config = config or OrchestratorConfig()
        self.rng = rng or random.Random(0)
        self.obs = obs if obs is not None else get_default()
        self._tracer = self.obs.tracer

        self.address = f"sm/{spec.name}/orchestrator"
        self.endpoint = network.register(self.address, CONTROL_REGION)
        self.table = AssignmentTable(spec, tracer=self._tracer)
        self.servers: Dict[str, ServerRecord] = {}
        # ``servers`` in address order, for the drain-target walk; rebuilt
        # by ``_servers_in_address_order`` when ``servers`` has grown.
        self._servers_by_address: List[ServerRecord] = []
        # Every replica's load vector when shard count is the only metric.
        lb_metrics = spec.lb_metrics
        self._unit_load: Optional[Tuple[float, ...]] = (
            (1.0,) * len(lb_metrics)
            if all(metric == "shard_count" for metric in lb_metrics) else None)
        self.allocator = Allocator(spec, self.config.search_config, self.rng,
                                   max_moves_per_round=self.config.max_moves_per_round)
        self.move_counter = Counter(name=f"{spec.name}/shard_moves")
        self.executor = MigrationExecutor(
            engine, network, self.address, self.table,
            publish=self._mark_dirty,
            move_report=lambda: self.move_counter.add(engine.now),
        )
        self._dirty = False
        self._publish_scheduled = False
        # (time, violations seen — None: a kept plan went on unsolved —,
        # moves planned) per rebalance, behind Fig 23's "violations" curve.
        self.rebalance_history: List[Tuple[float, Optional[int], int]] = []
        self._emergency_running = False
        self._rebalance_running = False
        # Replicas a relocation is moving: a drain and a rebalance race here.
        self._relocating: Set[str] = set()
        self._stoppers: List = []
        self._started = False
        self._servers_root = layout.servers_root(spec.name)
        self._assignments_root = layout.assignments_root(spec.name)
        self._state_path = layout.state_path(spec.name)
        # Persistence caches: per-address znodes written at least once,
        # servers new since the last publish, and every replica's
        # serialized form, by id in the table's replica order.  All are
        # per-incarnation: a failover's successor rewrites everything once.
        self._assignments_written: Set[str] = set()
        self._joined: Set[str] = set()
        self._replica_ser: Dict[str, Dict[str, str]] = {}
        self.publishes = 0
        if self.obs.enabled:
            metrics = self.obs.metrics
            prefix = f"sm.{spec.name}"
            metrics.gauge(f"{prefix}.publishes", lambda: self.publishes)
            metrics.gauge(f"{prefix}.moves",
                          lambda: self.executor.stats.total_moves)
            metrics.gauge(f"{prefix}.replicas", self.replica_total)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Begin watching servers and running the control loops.

        If a previous incarnation of this orchestrator persisted state in
        ZooKeeper (§3.2/§6.2: the control plane is stateful with
        primary-secondary failover), the assignment table is restored
        before anything else — a new control-plane replica takes over
        without reshuffling a single shard.
        """
        if self._started:
            raise RuntimeError("orchestrator already started")
        self._started = True
        self.table.tracer = self._tracer  # re-attach after a stop()
        for path in (self._servers_root, self._assignments_root):
            if not self.zookeeper.exists(path):
                self.zookeeper.create(path)
        self._restore_state()
        self._scan_servers()
        self._watch_servers()
        self._stoppers.append(every(
            self.engine, EMERGENCY_CHECK_INTERVAL, self._emergency_tick))
        if self._unit_load is None:
            # Some LB metric reads a report; shard count alone reads none.
            self._stoppers.append(every(
                self.engine, self.config.load_poll_interval,
                self._poll_loads))
        self._stoppers.append(every(
            self.engine, self.config.rebalance_interval,
            self._rebalance_tick))
        self._mark_dirty()

    def stop(self) -> None:
        """Stop control loops and release the endpoint (so a successor
        control-plane replica can register the same address)."""
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()
        self._started = False
        # In-flight migrations of this dead incarnation keep mutating its
        # table; detach the tracer so their transitions don't interleave
        # with the successor's journal — the successor's "reset" record
        # marks the authoritative state handover.
        self.table.tracer = NO_TRACER
        if self.network.has_endpoint(self.address):
            self.network.unregister(self.address)

    def successor(self) -> "Orchestrator":
        """Build the next control-plane incarnation (§6.2: the control
        plane itself fails over).  Call :meth:`stop` on this instance
        first — the successor registers the same network address and
        restores the assignment table from ZooKeeper in :meth:`start`."""
        return Orchestrator(
            engine=self.engine, network=self.network,
            zookeeper=self.zookeeper, discovery=self.discovery,
            spec=self.spec, topology=self.topology, config=self.config,
            rng=self.rng, obs=self.obs)

    def _restore_state(self) -> None:
        """Rebuild the assignment table from the §3.2 persistent state."""
        if not self.zookeeper.exists(self._state_path):
            return
        if self.table.all_replicas():
            return  # fresh-deploy path already populated the table
        data = self.zookeeper.get(self._state_path) or {}
        if self._tracer.enabled:
            # New incarnation, new replica ids: tell trace consumers the
            # app's replica state starts over, or the checker would see
            # the predecessor's READY primaries next to ours.
            self._tracer.instant("shards", "transition", None,
                                 {"app": self.spec.name, "op": "reset"})
        self.table.resume_versions_from(int(data.get("version", 0)))
        for entry in data.get("replicas", []):
            state = ReplicaState(entry["state"])
            if state in (ReplicaState.DROPPED, ReplicaState.DRAINING):
                continue  # mid-flight migrations restart from scratch
            self.table.add(entry["shard_id"], entry["address"],
                           Role(entry["role"]), state=state)

    # -- server membership (ZooKeeper ephemerals, §3.2) -----------------------------

    def _scan_servers(self) -> None:
        for name in self.zookeeper.children(self._servers_root):
            self._server_up(layout.node_address(name),
                            self.zookeeper.get(f"{self._servers_root}/{name}"))

    def _watch_servers(self) -> None:
        def on_children_change(_event: WatchEvent) -> None:
            if not self._started:
                return
            current = {layout.node_address(name)
                       for name in self.zookeeper.children(self._servers_root)}
            known_alive = {address for address, record in self.servers.items()
                           if record.alive}
            # Sorted iteration: set order depends on the process hash seed,
            # and server-insertion order feeds placement tie-breaking.
            for address in sorted(current - known_alive):
                name = layout.node_name(address)
                self._server_up(address,
                                self.zookeeper.get(
                                    f"{self._servers_root}/{name}"))
            for address in sorted(known_alive - current):
                self._server_down(address)
            self._watch_servers()  # ZooKeeper watches are one-shot; re-arm

        self.zookeeper.children(self._servers_root, watch=on_children_change)

    def _server_up(self, address: str, node_data: Dict[str, Any]) -> None:
        machine = self.topology.get(node_data["machine"])
        record = self.servers.get(address)
        if record is None:
            self.servers[address] = ServerRecord(address=address,
                                                 machine=machine)
            self._joined.add(address)
        else:
            record.alive = True
            record.unheard = False
            record.machine = machine
        # The server bootstrapped its shards from ZooKeeper; make them
        # routable again.
        self._mark_dirty()

    def _server_down(self, address: str) -> None:
        record = self.servers.get(address)
        if record is None:
            return
        record.alive = False
        self._mark_dirty()
        grace = self.config.failover_grace
        down_since = self.engine.now

        def failover_check() -> None:
            current = self.servers.get(address)
            if current is None or current.alive:
                return  # came back (e.g. quick restart): nothing to do
            if self.engine.now < current.expected_down_until:
                # A planned restart the TaskController told us about;
                # re-check when the window closes.
                self.engine.call_at(current.expected_down_until + 1.0,
                                    failover_check)
                return
            self._failover_address(address)

        self.engine.call_after(grace, failover_check)

    def _failover_address(self, address: str) -> None:
        """The server is gone for good: its replicas are lost; recreate
        them elsewhere ("the unused capacity of the application's running
        containers serves as cold standbys", §2.2.3)."""
        if not self._started:
            return  # a stopped incarnation's pending check must not act
        lost = self.table.on_address(address)
        if self._tracer.enabled:
            self._tracer.instant(
                "orchestrator", "failover", None,
                {"app": self.spec.name, "address": address,
                 "replicas_lost": len(lost)})
        for replica in lost:
            self.table.drop(replica.replica_id)
        self._write_assignments(address)
        self._mark_dirty()
        self._emergency_tick()

    def down_addresses(self) -> Set[str]:
        return {address for address, record in self.servers.items()
                if not record.alive}

    # -- shard-map publication -------------------------------------------------------

    def _mark_dirty(self) -> None:
        self._dirty = True
        if not self._publish_scheduled:
            self._publish_scheduled = True
            self.engine.call_after(PUBLISH_MIN_INTERVAL,
                                   self._flush_publish)

    def _flush_publish(self) -> None:
        self._publish_scheduled = False
        if not self._started:
            return  # stopped with a publish scheduled: successor owns it
        if not self._dirty:
            return
        self._dirty = False
        # Delta publishing: the table's dirty-shard bookkeeping becomes a
        # ShardMapDelta so dissemination costs O(changed).  After a
        # failover the successor's first delta chains onto the persisted
        # version (resume_versions_from), so subscribers that saw that
        # version apply it seamlessly; everyone else resyncs from the
        # full snapshot riding alongside.
        snapshot, delta = self.table.snapshot_delta()
        self.discovery.publish(snapshot, delta=delta)
        # Persist only what the table marked dirty since the last publish.
        self._write_all_assignments(self.table.consume_dirty_addresses())
        self._persist_state()
        self.publishes += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "orchestrator", "publish", None,
                {"app": self.spec.name, "version": snapshot.version,
                 "entries": len(snapshot)})

    def _write_assignments(self, address: str) -> None:
        path = f"{self._assignments_root}/{layout.node_name(address)}"
        ready = ReplicaState.READY
        pending = ReplicaState.PENDING
        data = [{"shard_id": r.shard_id, "role": VALUE_OF[r.role]}
                for r in self.table.address_view(address)
                if r.state is ready or r.state is pending]
        if self.zookeeper.exists(path):
            self.zookeeper.set(path, data)
        else:
            self.zookeeper.create(path, data)
        self._assignments_written.add(address)

    def _write_all_assignments(self, dirty: Set[str]) -> None:
        # Only addresses whose hosted replicas changed since the last
        # write need a new znode value; nothing watches these nodes (app
        # servers read them once at bootstrap), so skipping an identical
        # rewrite is unobservable.  Every table or server address still
        # gets one initial write (it is dirty when it first hosts a
        # replica, or ``_joined``), in an order free of the hash seed.
        written = self._assignments_written
        joined, self._joined = self._joined, set()
        for address in sorted(dirty | joined):
            if address in written and address not in dirty:
                continue
            if self.table.hosted_count(address) or address in self.servers:
                self._write_assignments(address)

    def _persist_state(self) -> None:
        """Orchestrator persistent state lives in ZooKeeper (§3.2).

        Publishes touch a handful of replicas but persist all of them, so
        the serialized replicas are kept between publishes, in the
        table's replica order, and patched: dropped replicas come from
        the table's log, new ones sit at the tail of the table, and only
        the table's dirty replicas can have changed otherwise.
        """
        table = self.table
        serialized = self._replica_ser
        for replica_id in table.consume_dropped():
            serialized.pop(replica_id, None)
        added = []
        for r in table.newest_replicas():
            if r.replica_id in serialized:
                break
            added.append(r)
        # Appending oldest-first keeps the dict in all_replicas() order;
        # re-assigning an existing key below keeps its position.
        for r in reversed(added):
            serialized[r.replica_id] = _serialize_replica(r)
        for r in table.consume_dirty_replicas():
            serialized[r.replica_id] = _serialize_replica(r)
        data = {"version": table.last_version,
                "replicas": list(serialized.values())}
        path = self._state_path
        if self.zookeeper.exists(path):
            self.zookeeper.set(path, data)
        else:
            self.zookeeper.create(path, data)

    # -- load collection (§3.2, §5) ------------------------------------------------------

    def _poll_loads(self) -> None:
        """Take every live server's ``sm.report_load`` answer as of this
        tick.  A server the orchestrator cannot reach (down, or cut off by
        a partition) keeps its previous report, and its counters run on
        into the next report it does give."""
        read = self.network.read
        source = self.address
        reached = missing = 0
        for address, record in self.servers.items():
            if record.alive:
                report = read(source, address, "sm.report_load")
                if report is None:
                    missing += 1
                else:
                    record.shard_loads = report
                    record.unheard = False
                    reached += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "orchestrator", "load_poll", None,
                {"app": self.spec.name, "reached": reached,
                 "missing": missing})

    def load_of(self, replica: ReplicaAssignment) -> Tuple[float, ...]:
        """Replica load vector aligned with the spec's LB metrics."""
        if self._unit_load is not None:
            return self._unit_load
        record = self.servers.get(replica.address)
        shard_report = (record.shard_loads if record is not None else {}).get(
            replica.shard_id, {})
        return tuple(
            1.0 if metric == "shard_count"
            else float(shard_report.get(metric, 0.0))
            for metric in self.spec.lb_metrics)

    # -- emergency placement ---------------------------------------------------------------

    def _emergency_tick(self) -> None:
        if self._emergency_running or not self._started:
            return
        plan = self.allocator.emergency_plan(self.table, self.servers,
                                             self.engine.now)
        if plan.empty:
            return
        self._emergency_running = True
        self.engine.process(self._execute_emergency(plan),
                            name=f"{self.spec.name}/emergency")

    def _execute_emergency(self, plan: AllocationPlan
                           ) -> Generator[Any, Any, None]:
        tracer = self._tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin("orchestrator", "emergency", None,
                                {"app": self.spec.name,
                                 "creates": len(plan.creates),
                                 "promotes": len(plan.promotes)})
        try:
            for promote in plan.promotes:
                try:
                    replica = self.table.get(promote.replica_id)
                except KeyError:
                    continue
                yield from self.executor.promote(replica)
            creates = list(plan.creates)
            yield from self._run_pool(
                min(MAX_CONCURRENT_MIGRATIONS, max(1, len(creates))), creates,
                self._create)
        finally:
            self._emergency_running = False
            if span:
                tracer.end(span, None, {"outcome": "ok"},
                           track="orchestrator", name="emergency")

    def _create(self, create: CreateReplica) -> Generator[Any, Any, None]:
        """An emergency create; a target that did not take it (stopped, its
        session still open) is no target until heard from."""
        created = yield from self.executor.create_replica(
            create.shard_id, create.address, create.role)
        if not created and create.address in self.servers:
            self.servers[create.address].unheard = True

    # -- periodic rebalancing (§5) --------------------------------------------------------------

    def _rebalance_tick(self) -> None:
        if self._rebalance_running or self._emergency_running:
            return
        plan = self.allocator.periodic_plan(self.table, self.servers,
                                            self.engine.now, self.load_of)
        result = plan.solve_result
        if result is not None or plan.continued:
            seen = None if result is None else result.initial_violations
            self.rebalance_history.append(
                (self.engine.now, seen, len(plan.moves)))
            if self._tracer.enabled:
                if plan.solved:
                    result.journal(self._tracer, self.engine.now,
                                   f"{self.spec.name}.")
                self._tracer.instant(
                    "orchestrator", "rebalance", None,
                    {"app": self.spec.name, "violations": seen,
                     "moves": len(plan.moves)})
        if not plan.moves:
            return
        self._rebalance_running = True
        self.engine.process(self._execute_moves(list(plan.moves)),
                            name=f"{self.spec.name}/rebalance")

    def _execute_moves(self, moves: List[MoveReplica]
                       ) -> Generator[Any, Any, None]:
        try:
            yield from self._run_pool(
                min(MAX_CONCURRENT_MIGRATIONS, max(1, len(moves))), moves,
                self._execute_one_move)
        finally:
            self._rebalance_running = False

    def _run_pool(self, size: int, queue: list,
                  work) -> Generator[Any, Any, None]:
        """Drain ``queue`` (from its end) through ``size`` worker
        processes running ``work(item)``; returns once all have finished."""

        def worker() -> Generator[Any, Any, None]:
            while queue:
                yield from work(queue.pop())

        workers = [self.engine.process(worker()) for _ in range(size)]
        for process in workers:
            yield process

    def _execute_one_move(self, move: MoveReplica
                          ) -> Generator[Any, Any, bool]:
        try:
            replica = self.table.get(move.replica_id)
        except KeyError:
            return False  # dropped since planning
        if replica.address != move.from_address:
            return False  # moved since planning
        target_record = self.servers.get(move.to_address)
        if target_record is None or not target_record.usable(self.engine.now):
            return False
        return (yield from self._relocate(replica, move.to_address))

    def _relocate(self, replica: ReplicaAssignment,
                  target: str) -> Generator[Any, Any, bool]:
        """Move one replica by the protocol its role calls for; False, with
        no RPC sent, when it is dropped or another relocation is moving it."""
        replica_id = replica.replica_id
        if (replica.state is ReplicaState.DROPPED
                or replica_id in self._relocating):
            return False
        if replica.role is not Role.PRIMARY:
            move = self.executor.move_secondary
        elif self.config.graceful_migration:
            move = self.executor.graceful_primary_migration
        else:
            move = self.executor.abrupt_primary_migration
        self._relocating.add(replica_id)
        try:
            moved = yield from move(replica, target)
        finally:
            self._relocating.discard(replica_id)
        if moved:
            self.servers[target].unheard = False  # it took the replica
        return moved

    # -- drains (called by SM's TaskController, §4.1) -------------------------------------------

    def drain_address(self, address: str) -> Process:
        """Move replicas off a container ahead of a planned event.

        Which roles move is the app's drain policy (§2.2.5).  Returns a
        process whose completion means the container is safe to restart.
        """
        record = self.servers.get(address)
        if record is not None:
            record.draining = True

        tracer = self._tracer

        def drain() -> Generator[Any, Any, int]:
            moved = 0
            policy = self.spec.drain_policy
            replicas = [r for r in self.table.on_address(address)
                        if r.state is ReplicaState.READY
                        and policy.drains(r.role)]
            span = 0
            if tracer.enabled:
                span = tracer.begin("orchestrator", "drain", None,
                                    {"app": self.spec.name,
                                     "address": address,
                                     "replicas": len(replicas)})

            def drain_one(replica: ReplicaAssignment
                          ) -> Generator[Any, Any, None]:
                nonlocal moved
                target = self._pick_drain_target(replica)
                if target is None:
                    return
                if (yield from self._relocate(replica, target)):
                    moved += 1
                if self.config.drain_pacing:
                    yield Delay(self.config.drain_pacing)

            yield from self._run_pool(max(1, self.config.drain_concurrency),
                                      replicas, drain_one)
            if span:
                tracer.end(span, None, {"outcome": "ok", "moved": moved},
                           track="orchestrator", name="drain")
            return moved

        return self.engine.process(drain(), name=f"drain:{address}")

    def _servers_in_address_order(self) -> List[ServerRecord]:
        ordered = self._servers_by_address
        if len(ordered) != len(self.servers):
            # Records are added and never removed, so a length check sees
            # every change; removal would need its own invalidation.
            if len(ordered) > len(self.servers):
                raise RuntimeError("a server record was removed")
            ordered = self._servers_by_address = sorted(
                self.servers.values(), key=lambda record: record.address)
        return ordered

    def _pick_drain_target(self, replica: ReplicaAssignment) -> Optional[str]:
        """The usable server not hosting the shard that ranks best on
        (preferred region, region new to the shard, fewest hosted replicas,
        a random tie-break), first in address order among equals."""
        servers = self.servers
        preferred = self.spec.shard(replica.shard_id).preferred_region
        existing = {r.address
                    for r in self.table.replicas_view(replica.shard_id)}
        existing_regions = {servers[a].machine.region
                            for a in existing if a in servers}
        now = self.engine.now
        hosted_count = self.table.hosted_count
        draw = self.rng.random
        best: Optional[ServerRecord] = None
        best_rank = best_draw = 0
        for record in self._servers_in_address_order():
            address = record.address
            # ``not record.usable(now)``, spelt out to save a call per
            # server per pick.
            if (not record.alive or record.draining or record.unheard
                    or now < record.expected_down_until
                    or address in existing):
                continue
            region = record.machine.region
            # Region tests outweigh any count (no preference: all != None).
            rank = (((region != preferred) << 29)
                    + ((region in existing_regions) << 28)
                    + hosted_count(address))
            tie = draw()
            if (best is None or rank < best_rank
                    or rank == best_rank and tie < best_draw):
                best, best_rank, best_draw = record, rank, tie
        return best.address if best is not None else None

    def undrain_address(self, address: str) -> None:
        record = self.servers.get(address)
        if record is not None:
            record.draining = False

    def expect_restart(self, address: str, duration: float) -> None:
        """A planned restart is coming: suppress failover for its window."""
        record = self.servers.get(address)
        if record is not None:
            record.expected_down_until = self.engine.now + duration

    # -- queries used by the TaskController and experiments ------------------------------------------

    def replica_total(self) -> int:
        return len(self.table.all_replicas())
