"""Shard scaler: per-shard replica-count scaling (§3.4, §6.1).

"In response to load changes on shards, SM can adjust each shard's
replica count independently."  The scaler watches each shard's measured
load (from the orchestrator's reports), and:

* adds a secondary replica when per-replica load exceeds the high
  watermark (up to ``max_replicas``);
* drops a secondary when it falls below the low watermark (down to the
  shard's configured ``replica_count`` floor).

Only secondary-capable applications scale: a primary-only shard has
exactly one replica by definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..sim.engine import Engine, every
from .orchestrator import Orchestrator
from .shard_map import ReplicaState, Role
from .spec import ReplicationStrategy


#: A shard scales up when its per-replica load exceeds this fraction of
#: ``replica_capacity`` and down when it falls below the low one.
HIGH_WATERMARK = 0.8
LOW_WATERMARK = 0.2

#: Scaling decisions executed per tick, at most.
MAX_CHANGES_PER_TICK = 16


@dataclass
class ShardScalerConfig:
    interval: float = 30.0
    metric: str = "request_rate"
    replica_capacity: float = 100.0  # metric units one replica can absorb
    max_replicas: int = 5


@dataclass
class ShardScalerStats:
    scale_ups: int = 0
    scale_downs: int = 0


class ShardScaler:
    """Periodically adjusts replica counts for one application."""

    def __init__(self, engine: Engine, orchestrator: Orchestrator,
                 config: Optional[ShardScalerConfig] = None) -> None:
        if orchestrator.spec.replication is ReplicationStrategy.PRIMARY_ONLY:
            raise ValueError(
                "primary-only applications cannot scale replica counts")
        self.config = config or ShardScalerConfig()
        metrics = orchestrator.spec.lb_metrics
        if self.config.metric not in metrics:
            # The orchestrator collects only the loads its LB metrics read.
            raise ValueError(f"scaling metric {self.config.metric!r} is not "
                             f"one of the app's LB metrics {metrics!r}")
        self._metric_index = metrics.index(self.config.metric)
        self.engine = engine
        self.orchestrator = orchestrator
        self.stats = ShardScalerStats()
        self._stopper = None
        self._running = False

    def start(self) -> None:
        self._stopper = every(self.engine, self.config.interval, self._tick)

    def stop(self) -> None:
        if self._stopper is not None:
            self._stopper()
            self._stopper = None

    # -- internals -------------------------------------------------------------

    def shard_load(self, shard_id: str) -> float:
        """Aggregate measured load over a shard's ready replicas."""
        total = 0.0
        for replica in self.orchestrator.table.replicas_of(shard_id):
            if replica.available:
                total += self.orchestrator.load_of(replica)[self._metric_index]
        return total

    def _tick(self) -> None:
        if self._running:
            return
        decisions = self._plan()
        if decisions:
            self._running = True
            self.engine.process(self._execute(decisions), name="shard-scaler")

    def _plan(self) -> List[tuple]:
        config = self.config
        decisions: List[tuple] = []
        for shard in self.orchestrator.spec.shards:
            replicas = [r for r in self.orchestrator.table.replicas_of(
                shard.shard_id) if r.state is ReplicaState.READY]
            if not replicas:
                continue
            load = self.shard_load(shard.shard_id)
            per_replica = load / len(replicas)
            if (per_replica > HIGH_WATERMARK * config.replica_capacity
                    and len(replicas) < config.max_replicas):
                decisions.append(("up", shard.shard_id))
            elif (per_replica < LOW_WATERMARK * config.replica_capacity
                    and len(replicas) > shard.replica_count):
                victim = next((r for r in replicas
                               if r.role is Role.SECONDARY), None)
                if victim is not None:
                    decisions.append(("down", victim.replica_id))
            if len(decisions) >= MAX_CHANGES_PER_TICK:
                break
        return decisions

    def _execute(self, decisions: List[tuple]) -> Generator:
        try:
            for kind, target in decisions:
                if kind == "up":
                    address = self.orchestrator._pick_drain_target(
                        _FakeReplica(target))
                    if address is None:
                        continue
                    ok = yield from self.orchestrator.executor.create_replica(
                        target, address, Role.SECONDARY)
                    if ok:
                        self.stats.scale_ups += 1
                else:
                    try:
                        replica = self.orchestrator.table.get(target)
                    except KeyError:
                        continue
                    ok = yield from self.orchestrator.executor.drop_replica(
                        replica)
                    if ok:
                        self.stats.scale_downs += 1
        finally:
            self._running = False


class _FakeReplica:
    """Adapter so target picking can be reused for brand-new replicas."""

    __slots__ = ("shard_id",)

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
