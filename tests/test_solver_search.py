"""Unit tests for the local-search engine and the Rebalancer facade."""

import random

import pytest

from repro.solver import local_search
from repro.solver.api import Rebalancer
from repro.solver.local_search import (BASELINE, OPTIMIZED, LocalSearch,
                                       SearchConfig)
from repro.solver.problem import PlacementProblem, ReplicaInfo, ServerInfo
from repro.solver.specs import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    DrainSpec,
    ExclusionSpec,
    Scope,
    UtilizationSpec,
)
from repro.sim.rng import skewed_loads


def lb_problem(num_servers=20, num_replicas=200, seed=1,
               mean_utilization=0.5, regions=("A", "B", "C"),
               replicas_per_shard=1):
    rng = random.Random(seed)
    servers = [
        ServerInfo(name=f"s{i}", region=regions[i % len(regions)],
                   datacenter=f"dc{i % 4}", rack=f"rack{i % 8}",
                   capacity=(100.0,))
        for i in range(num_servers)
    ]
    mean = mean_utilization * 100.0 * num_servers / num_replicas
    loads = skewed_loads(rng, num_replicas, mean=mean)
    replicas = [
        ReplicaInfo(name=f"r{i}", shard=f"sh{i // replicas_per_shard}",
                    load=(loads[i],))
        for i in range(num_replicas)
    ]
    problem = PlacementProblem(["cpu"], servers, replicas)
    problem.random_assignment(rng)
    return problem


def standard_rebalancer(problem):
    rebalancer = Rebalancer(problem)
    rebalancer.add_constraint(CapacitySpec(metric="cpu"))
    rebalancer.add_goal(UtilizationSpec(metric="cpu", threshold=0.9))
    rebalancer.add_goal(BalanceSpec(metric="cpu", band=0.1))
    return rebalancer


class TestConvergence:
    def test_fixes_all_lb_violations(self):
        problem = lb_problem()
        rebalancer = standard_rebalancer(problem)
        assert rebalancer.violations() > 0
        result = rebalancer.solve(SearchConfig(time_budget=20.0))
        assert rebalancer.violations() == 0
        assert result.final_violations == 0
        assert result.final_violations == 0

    def test_capacity_never_violated_by_moves(self):
        problem = lb_problem(mean_utilization=0.6)
        rebalancer = standard_rebalancer(problem)
        overflowing_before = {
            s for s in range(len(problem.servers))
            if problem.usage[s][0] > problem.capacity[s][0] + 1e-9}
        rebalancer.solve(SearchConfig(time_budget=20.0))
        for s in range(len(problem.servers)):
            if s in overflowing_before:
                continue
            assert problem.usage[s][0] <= problem.capacity[s][0] + 1e-9

    def test_spread_and_affinity_converge(self):
        rng = random.Random(2)
        servers = [ServerInfo(name=f"s{i}", region=["A", "B", "C"][i % 3],
                              capacity=(1000.0,)) for i in range(12)]
        replicas = []
        for shard in range(30):
            for copy in range(3):
                replicas.append(ReplicaInfo(
                    name=f"sh{shard}#{copy}", shard=f"sh{shard}",
                    load=(1.0,),
                    preferred_region="A" if shard < 10 else None))
        problem = PlacementProblem(["cpu"], servers, replicas)
        problem.random_assignment(rng)
        rebalancer = Rebalancer(problem)
        rebalancer.add_constraint(CapacitySpec(metric="cpu"))
        rebalancer.add_goal(AffinitySpec())
        rebalancer.add_goal(ExclusionSpec(scope=Scope.REGION))
        rebalancer.solve(SearchConfig(time_budget=20.0))
        assert rebalancer.violations() == 0

    def test_drain_goal_empties_server(self):
        rng = random.Random(3)
        servers = [ServerInfo(name=f"s{i}", region="A", capacity=(100.0,),
                              draining=(i == 0)) for i in range(5)]
        replicas = [ReplicaInfo(name=f"r{i}", shard=f"sh{i}", load=(5.0,))
                    for i in range(20)]
        problem = PlacementProblem(["cpu"], servers, replicas)
        problem.random_assignment(rng)
        rebalancer = Rebalancer(problem)
        rebalancer.add_constraint(CapacitySpec(metric="cpu"))
        rebalancer.add_goal(DrainSpec())
        rebalancer.solve(SearchConfig(time_budget=10.0))
        assert not problem.replicas_on[0]


class TestBudgets:
    def test_move_budget_respected(self, monkeypatch):
        monkeypatch.setattr(local_search, "MOVE_BUDGET", 5)
        problem = lb_problem()
        rebalancer = standard_rebalancer(problem)
        result = rebalancer.solve(SearchConfig(time_budget=20.0))
        assert result.moves <= 5

    def test_time_budget_respected(self):
        """Host time only sets the flag: a spent budget stops nothing."""
        results = []
        for budget in (60.0, 0.0):
            problem = lb_problem(num_servers=40, num_replicas=2000)
            result = standard_rebalancer(problem).solve(
                SearchConfig(time_budget=budget))
            results.append((result, problem.assignment))
        (free, free_assignment), (spent, spent_assignment) = results
        assert spent.timed_out and not free.timed_out
        assert spent_assignment == free_assignment
        assert (spent.moves, spent.evaluations) == \
            (free.moves, free.evaluations)
        assert spent.changed_replicas == free.changed_replicas


class TestOptimizationFlags:
    def test_baseline_also_converges_but_uses_more_moves(self):
        problem_a = lb_problem(seed=7)
        optimized = standard_rebalancer(problem_a)
        result_a = optimized.solve(SearchConfig(time_budget=20.0))

        problem_b = lb_problem(seed=7)
        baseline = standard_rebalancer(problem_b)
        result_b = baseline.solve(
            SearchConfig(time_budget=20.0).without_optimizations())
        assert result_a.final_violations == 0
        # The baseline either needs more moves or fails to converge.
        assert (result_b.final_violations != 0
                or result_b.moves >= result_a.moves)

    def test_without_optimizations_flags(self):
        config = SearchConfig(time_budget=3.0, rng_seed=5)
        assert config.optimized
        baseline = config.without_optimizations()
        assert not baseline.optimized
        assert baseline == SearchConfig(time_budget=3.0, rng_seed=5,
                                        optimized=False)
        assert BASELINE == OPTIMIZED.without_optimizations()

    def test_higher_priority_goals_never_deteriorate(self):
        rng = random.Random(4)
        servers = [ServerInfo(name=f"s{i}", region=["A", "B"][i % 2],
                              capacity=(100.0,)) for i in range(10)]
        replicas = []
        for shard in range(20):
            for copy in range(2):
                replicas.append(ReplicaInfo(
                    name=f"sh{shard}#{copy}", shard=f"sh{shard}",
                    load=(4.0,)))
        problem = PlacementProblem(["cpu"], servers, replicas)
        problem.random_assignment(rng)
        rebalancer = Rebalancer(problem)
        rebalancer.add_constraint(CapacitySpec(metric="cpu"))
        rebalancer.add_goal(ExclusionSpec(scope=Scope.REGION))   # priority 2
        rebalancer.add_goal(BalanceSpec(metric="cpu", band=0.05))  # priority 5
        rebalancer.solve(SearchConfig(time_budget=10.0))
        spread = [count for name, count
                  in rebalancer.violations_by_goal().items()
                  if name.startswith("spread")]
        assert spread == [0]


class TestRebalancerApi:
    def test_requires_goals(self):
        problem = lb_problem()
        with pytest.raises(ValueError):
            LocalSearch(problem, [], OPTIMIZED)

    def test_capacity_must_use_add_constraint(self):
        rebalancer = Rebalancer(lb_problem())
        with pytest.raises(TypeError):
            rebalancer.add_goal(CapacitySpec(metric="cpu"))

    def test_unknown_spec_rejected(self):
        rebalancer = Rebalancer(lb_problem())
        with pytest.raises(TypeError):
            rebalancer.add_goal(object())

    def test_violations_by_goal_names(self):
        rebalancer = standard_rebalancer(lb_problem())
        names = set(rebalancer.violations_by_goal())
        assert any("capacity" in n for n in names)
        assert any("balance" in n for n in names)


class TestStops:
    @pytest.mark.parametrize("budget", [0, 3])
    def test_move_budget_stops_the_search_exactly(self, budget, monkeypatch):
        """``MOVE_BUDGET`` is a count, not a clock: the search stops on
        the move that reaches it (between two hot servers for 3, before
        the first round for 0) and does not report a time-out."""
        monkeypatch.setattr(local_search, "MOVE_BUDGET", budget)
        problem = lb_problem()
        before = list(problem.assignment)
        rebalancer = standard_rebalancer(problem)
        result = rebalancer.solve(SearchConfig(time_budget=20.0))
        assert result.moves == budget
        assert result.timed_out is False
        assert result.final_violations > 0          # it was not done
        assert len(result.changed_replicas) == budget
        assert sum(1 for old, new in zip(before, problem.assignment)
                   if old != new) == budget
