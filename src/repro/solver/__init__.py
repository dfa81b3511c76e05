"""Generic constraint solver (stand-in for Facebook's ReBalancer)."""

from .api import Rebalancer
from .goals import (
    AffinityGoal,
    BalanceGoal,
    CapacityGoal,
    DrainGoal,
    Goal,
    SpreadGoal,
    UtilizationGoal,
)
from .local_search import BASELINE, OPTIMIZED, LocalSearch, SearchConfig, SolveResult
from .problem import PlacementProblem, ReplicaInfo, ServerInfo
from .specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    Scope,
    UtilizationSpec,
)

__all__ = [
    "Rebalancer",
    "AffinityGoal",
    "BalanceGoal",
    "CapacityGoal",
    "DrainGoal",
    "Goal",
    "SpreadGoal",
    "UtilizationGoal",
    "BASELINE",
    "OPTIMIZED",
    "LocalSearch",
    "SearchConfig",
    "SolveResult",
    "PlacementProblem",
    "ReplicaInfo",
    "ServerInfo",
    "AffinitySpec",
    "BalanceSpec",
    "CapacitySpec",
    "DrainSpec",
    "ExclusionSpec",
    "Scope",
    "UtilizationSpec",
]
