"""The ReBalancer-style facade: declare constraints/goals, then solve.

Mirrors the paper's Figure 13 usage:

    rebalancer = Rebalancer(problem)
    rebalancer.add_constraint(CapacitySpec(metric="cpu"))
    rebalancer.add_goal(BalanceSpec(metric="cpu"), weight=1.0)
    rebalancer.add_goal(AffinitySpec(affinities=...))
    rebalancer.add_goal(ExclusionSpec(scope=Scope.REGION))
    result = rebalancer.solve(config)

"ReBalancer's simple yet powerful APIs enforce the separation of
concerns" (§5.3): SM's allocator only ever talks to this class.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .goals import (
    AffinityGoal,
    BalanceGoal,
    CapacityGoal,
    DrainGoal,
    Goal,
    SpreadGoal,
    UtilizationGoal,
)
from .local_search import OPTIMIZED, LocalSearch, SearchConfig, SolveResult
from .problem import PlacementProblem
from .specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    UtilizationSpec,
)

Spec = Union[CapacitySpec, UtilizationSpec, BalanceSpec, AffinitySpec,
             ExclusionSpec, DrainSpec]


class Rebalancer:
    """Builds goal evaluators from specs and runs the local search."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        self._goals: List[Goal] = []

    def add_constraint(self, spec: CapacitySpec) -> "Rebalancer":
        self._goals.append(CapacityGoal(self.problem, spec))
        return self

    def add_goal(self, spec: Spec, weight: float = 1.0) -> "Rebalancer":
        if isinstance(spec, CapacitySpec):
            raise TypeError("capacity is a hard constraint; use add_constraint")
        if isinstance(spec, UtilizationSpec):
            self._goals.append(UtilizationGoal(self.problem, spec, weight))
        elif isinstance(spec, BalanceSpec):
            self._goals.append(BalanceGoal(self.problem, spec, weight))
        elif isinstance(spec, AffinitySpec):
            self._goals.append(AffinityGoal(self.problem, spec))
        elif isinstance(spec, ExclusionSpec):
            self._goals.append(SpreadGoal(self.problem, spec))
        elif isinstance(spec, DrainSpec):
            self._goals.append(DrainGoal(self.problem, spec))
        else:
            raise TypeError(f"unsupported spec {spec!r}")
        return self

    def violations(self) -> int:
        return sum(goal.violations() for goal in self._goals)

    def violations_by_goal(self) -> Dict[str, int]:
        return {goal.name: goal.violations() for goal in self._goals}

    def solve(self, config: SearchConfig = OPTIMIZED) -> SolveResult:
        search = LocalSearch(self.problem, self._goals, config)
        return search.solve()
