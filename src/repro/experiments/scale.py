"""Figure 16: scale of mini-SMs.

A population of SM application deployments is partitioned across
mini-SMs with the §6.1 rules (partitions of ≤ hundreds of thousands of
replicas; mini-SMs capped at ~1.5M replicas — the paper's largest runs
≈50K servers / 1.3M shards), and the resulting mini-SM footprints are
plotted.  The deployment sizes are inputs, drawn log-normal under the
paper's largest app (19K servers / 2.6M shards); the mini-SM footprints
are what ``core.mini_sm``'s partitioning makes of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..core.mini_sm import PartitionRegistry, plan_partition_footprints
from ..sim.rng import substream

#: SM application deployments partitioned.
APP_COUNT = 250
#: The paper's largest SM application (§2.2, Figure 15).
MAX_SERVERS_PER_APP = 19_000
MAX_SHARDS_PER_APP = 2_600_000
#: Share of SM apps that are primary-only (§2.2.3): one replica per
#: shard; the rest keep three.
PRIMARY_ONLY_FRACTION = 0.68


def _sm_apps(rng: random.Random) -> Iterator[Tuple[int, int, int]]:
    """(servers, shards, replicas per shard) per deployment: servers
    log-normal around 160, shards per server log-normal around 40."""
    for _ in range(APP_COUNT):
        servers = int(rng.lognormvariate(math.log(160), 2.0))
        servers = max(1, min(servers, MAX_SERVERS_PER_APP))
        ratio = max(1.0, min(rng.lognormvariate(math.log(40), 1.0), 500.0))
        shards = max(1, min(int(servers * ratio), MAX_SHARDS_PER_APP))
        replicas = 1 if rng.random() < PRIMARY_ONLY_FRACTION else 3
        yield servers, shards, replicas


@dataclass
class ScaleResult:
    mini_sm_scatter: List[Tuple[int, int]]   # (servers, shards)
    mini_sm_count: int

    @property
    def max_mini_sm(self) -> Tuple[int, int]:
        return max(self.mini_sm_scatter, key=lambda p: p[0])


def run(seed: int = 0) -> ScaleResult:
    registry = PartitionRegistry()
    for index, (servers, shards, replicas) in enumerate(
            _sm_apps(substream(seed, "fig16"))):
        for footprint in plan_partition_footprints(
                f"app{index:04d}", servers, shards,
                replicas_per_shard=replicas):
            registry.assign(footprint)
    return ScaleResult(
        mini_sm_scatter=[(m.server_count, m.shard_count)
                         for m in registry.mini_sms],
        mini_sm_count=len(registry.mini_sms),
    )


def format_report(result: ScaleResult) -> str:
    mini_servers, mini_shards = result.max_mini_sm
    lines = [
        "Figure 16 — scale of mini-SMs",
        f"  SM deployments         : {APP_COUNT}",
        f"  mini-SMs               : {result.mini_sm_count}"
        f" (paper operates 139 + 48)",
        f"  largest mini-SM        : {mini_servers:,} servers /"
        f" {mini_shards:,} shards (paper: ~50K / ~1.3M)",
    ]
    return "\n".join(lines)
