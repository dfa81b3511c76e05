"""Solver-problem snapshots modelled on the Fig 21/22 ZippyDB workload.

"We take a snapshot of the server-capacity and shard-load information
from a production deployment of ZippyDB.  SM balances load on three
metrics: storage, CPU, and shard count.  The shard load varies
drastically — the largest shard's load is 20 times higher than that of
the smallest shard.  The server hardware is heterogeneous; e.g., the
storage capacity varies by up to 20%."

:func:`zippydb_snapshot` builds such a problem at any scale, and
:func:`attach_zippydb_goals` adds the experiment's two LB goals
(utilization < 90%; utilization within 10% of the mean) plus capacity
hard constraints — the exact violation definitions of §8.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sim.rng import skewed_loads, substream
from ..solver.api import Rebalancer
from ..solver.problem import PlacementProblem, ReplicaInfo, ServerInfo
from ..solver.specs import BalanceSpec, CapacitySpec, UtilizationSpec

ZIPPYDB_METRICS = ("cpu", "storage", "shard_count")

#: Mean server utilization of the snapshot, per metric.
MEAN_UTILIZATION = 0.70
#: "The storage capacity varies by up to 20%": each server's cpu and
#: storage capacity is ``100 * (1 + U(-0.2, 0.2))``.
CAPACITY_HETEROGENEITY = 0.20
#: §8.4's two LB goals: utilization below 90 %, and within 10 % of the
#: mean.
UTILIZATION_THRESHOLD = 0.9
BALANCE_BAND = 0.1


@dataclass(frozen=True)
class SnapshotScale:
    """One point of Fig 21's scaling sweep."""

    servers: int
    shards: int

    @property
    def label(self) -> str:
        return f"{self.shards} shards on {self.servers} servers"


# The paper's sweep; the benchmarks run a constant scale-down of this.
PAPER_SCALES = (
    SnapshotScale(servers=1_000, shards=75_000),
    SnapshotScale(servers=3_000, shards=225_000),
    SnapshotScale(servers=5_000, shards=375_000),
)


def scaled(scales: Tuple[SnapshotScale, ...] = PAPER_SCALES,
           factor: int = 10) -> List[SnapshotScale]:
    """Scale the paper's sweep down by ``factor`` preserving ratios."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return [SnapshotScale(servers=max(1, s.servers // factor),
                          shards=max(1, s.shards // factor))
            for s in scales]


def zippydb_snapshot(scale: SnapshotScale, seed: int = 0
                     ) -> PlacementProblem:
    """Build the stress-test problem.

    Its assignment is random, the experiment's initial state: "each
    experiment run's initial state starts with a random shard-to-server
    assignment in order to stress test the allocator with an unusually
    large number of violations to fix".
    """
    rng = substream(seed, "zippydb-snapshot", scale.servers, scale.shards)
    base_capacity = 100.0
    shard_capacity = max(1.0, scale.shards / scale.servers * 4.0)
    jitter = lambda: 1.0 + rng.uniform(-CAPACITY_HETEROGENEITY,
                                       CAPACITY_HETEROGENEITY)
    servers = [ServerInfo(
        name=f"server{index:05d}",
        region="prod",
        datacenter=f"dc{index % 4}",
        rack=f"rack{index % 64}",
        capacity=(base_capacity * jitter(),      # cpu
                  base_capacity * jitter(),      # storage
                  shard_capacity),               # shard count
    ) for index in range(scale.servers)]
    mean_load_per_shard = (MEAN_UTILIZATION * base_capacity * scale.servers
                           / scale.shards)
    cpu_loads = skewed_loads(rng, scale.shards, mean=mean_load_per_shard)
    random = rng.random
    replicas = []
    for index, cpu in enumerate(cpu_loads):
        name = f"shard{index:06d}"  # one replica a shard: one string for both
        # storage = cpu * rng.uniform(0.6, 1.4), the call written out.
        replicas.append(ReplicaInfo(
            name, name, (cpu, cpu * (0.6 + (1.4 - 0.6) * random()), 1.0)))
    problem = PlacementProblem(list(ZIPPYDB_METRICS), servers, replicas)
    problem.random_assignment(rng)
    return problem


def attach_zippydb_goals(problem: PlacementProblem) -> Rebalancer:
    """§8.4's goals: "one LB goal is to prevent a server's resource
    utilization from going above 90% ... another LB goal is to cap the
    difference of server utilization within 10%"."""
    rebalancer = Rebalancer(problem)
    for metric in ("cpu", "storage"):
        rebalancer.add_constraint(CapacitySpec(metric=metric))
        rebalancer.add_goal(UtilizationSpec(metric=metric,
                                            threshold=UTILIZATION_THRESHOLD))
        rebalancer.add_goal(BalanceSpec(metric=metric, band=BALANCE_BAND))
    rebalancer.add_constraint(CapacitySpec(metric="shard_count"))
    return rebalancer
