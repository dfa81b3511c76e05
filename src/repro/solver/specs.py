"""ReBalancer-style declarative specs (paper Figure 13).

Systems code expresses placement requirements with these specs; the solver
compiles them into goal evaluators (``repro.solver.goals``).  The spec
vocabulary mirrors the paper's API examples:

    addConstraint(CapacitySpec{.scope="host", .metric="cpu"})
    addGoal(BalanceSpec{.scope="host", .metric="cpu"}, 1.0)
    addGoal(AffinitySpec{.scope="region", .affinities=...})
    addGoal(ExclusionSpec{.scope="region", .partition=...})

Here capacity is per host and affinity per region, and an affinity is
each replica's ``preferred_region``.  Priorities follow §5.1's ordering
(lower number = more important): balance and spread specs carry theirs,
since SM's allocator adds each at two priorities; the other goals read
the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Scope(str, Enum):
    """Where a constraint/goal aggregates: a fault-domain level."""

    HOST = "host"
    RACK = "rack"
    DATACENTER = "datacenter"
    REGION = "region"


# §5.1 soft-goal priorities, high to low importance.
PRIORITY_CAPACITY = 0          # hard constraint, always fixed first
PRIORITY_REGION_PREFERENCE = 1
PRIORITY_SPREAD = 2
PRIORITY_MAINTENANCE_DRAIN = 3
PRIORITY_UTILIZATION_THRESHOLD = 4
PRIORITY_GLOBAL_BALANCE = 5
PRIORITY_REGIONAL_BALANCE = 6
PRIORITY_PARALLEL_FAILOVER = 7


@dataclass(frozen=True)
class CapacitySpec:
    """Hard constraint: aggregate load on a server must fit its full
    capacity."""

    metric: str


@dataclass(frozen=True)
class UtilizationSpec:
    """Soft goal 4: keep each server's utilization under ``threshold``."""

    metric: str
    threshold: float = 0.9


@dataclass(frozen=True)
class BalanceSpec:
    """Soft goals 5/6: no server above the mean utilization + ``band``.

    ``scope=REGION`` balances within each region (goal 6); any other scope
    balances across the whole problem (goal 5).
    """

    metric: str
    scope: Scope = Scope.HOST
    band: float = 0.1
    priority: int = PRIORITY_GLOBAL_BALANCE


@dataclass(frozen=True)
class AffinitySpec:
    """Soft goal 1: place each shard in its replicas' ``preferred_region``
    (weighted by their ``preference_weight``), at region scope."""


@dataclass(frozen=True)
class ExclusionSpec:
    """Soft goal 2: spread each shard's replicas across fault domains.

    Cost counts co-located replica pairs of the same shard at ``scope``
    level (0 when every replica of every shard sits in a distinct domain).
    """

    scope: Scope = Scope.REGION
    priority: int = PRIORITY_SPREAD


@dataclass(frozen=True)
class DrainSpec:
    """Soft goal 3: move replicas off servers flagged as draining."""
