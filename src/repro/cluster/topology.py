"""Fleet topology: regions → data centers → racks → machines.

Facebook "operates out of tens of geo-distributed regions.  Each region
consists of multiple data centers" (§2.2.2), and SM spreads shard replicas
"across fault domains at all levels, including regions, data centers, and
racks" (§3.4).  This module models exactly that hierarchy.

Machines carry a capacity vector over named metrics (e.g. ``cpu``,
``storage``, ``shard_count``) because Fig 21's workload has heterogeneous
hardware ("the storage capacity varies by up to 20%").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence


class FaultDomainLevel(str, Enum):
    """Spread scopes, from widest to narrowest."""

    REGION = "region"
    DATACENTER = "datacenter"
    RACK = "rack"
    HOST = "host"


@dataclass
class Machine:
    """A physical machine; the unit of failure and maintenance."""

    machine_id: str
    region: str
    datacenter: str
    rack: str
    capacity: Dict[str, float]
    up: bool = True


@dataclass
class Topology:
    """All machines, indexable by fault domain."""

    machines: List[Machine] = field(default_factory=list)
    _by_id: Dict[str, Machine] = field(default_factory=dict, repr=False)

    def add(self, machine: Machine) -> None:
        if machine.machine_id in self._by_id:
            raise ValueError(f"duplicate machine id {machine.machine_id!r}")
        self.machines.append(machine)
        self._by_id[machine.machine_id] = machine

    def get(self, machine_id: str) -> Machine:
        try:
            return self._by_id[machine_id]
        except KeyError:
            raise KeyError(f"unknown machine {machine_id!r}") from None

    def in_region(self, region: str) -> List[Machine]:
        return [m for m in self.machines if m.region == region]


DEFAULT_CAPACITY = {"cpu": 100.0, "memory": 100.0, "shard_count": 1000.0}

#: Fault domains of a region: machine ``i`` sits in datacenter
#: ``i % DATACENTERS_PER_REGION`` and rack ``i % (DATACENTERS_PER_REGION *
#: RACKS_PER_DATACENTER)``.
DATACENTERS_PER_REGION = 2
RACKS_PER_DATACENTER = 4


def build_topology(regions: Sequence[str],
                   machines_per_region: int,
                   capacity: Optional[Dict[str, float]] = None,
                   capacity_jitter: float = 0.0,
                   rng: Optional[random.Random] = None) -> Topology:
    """Build a balanced topology.

    ``capacity_jitter`` models heterogeneous hardware: each machine's
    per-metric capacity is scaled by a uniform factor in
    [1 - jitter, 1 + jitter] (Fig 21 uses up to 20% heterogeneity).
    """
    if machines_per_region <= 0:
        raise ValueError("machines_per_region must be positive")
    if not 0.0 <= capacity_jitter < 1.0:
        raise ValueError(f"capacity_jitter must be in [0, 1), got {capacity_jitter!r}")
    rng = rng or random.Random(0)
    base_capacity = dict(capacity or DEFAULT_CAPACITY)
    topology = Topology()
    counter = itertools.count()
    for region in regions:
        for index in range(machines_per_region):
            dc_index = index % DATACENTERS_PER_REGION
            rack_index = index % (DATACENTERS_PER_REGION
                                  * RACKS_PER_DATACENTER)
            datacenter = f"{region}.dc{dc_index}"
            rack = f"{datacenter}.rack{rack_index}"
            if capacity_jitter:
                machine_capacity = {
                    metric: value * (1.0 + rng.uniform(-capacity_jitter, capacity_jitter))
                    for metric, value in base_capacity.items()
                }
            else:
                machine_capacity = dict(base_capacity)
            # Unused draw: it keeps the jitter stream's draws where every
            # pinned result (Fig 23's capacities among them) expects them.
            rng.random()
            topology.add(Machine(
                machine_id=f"m{next(counter):06d}",
                region=region,
                datacenter=datacenter,
                rack=rack,
                capacity=machine_capacity,
            ))
    return topology
