"""Unit tests for goal evaluators: cost, violations, and delta consistency.

The central invariant, checked for every goal: ``move_delta`` must equal
the actual change of ``total_cost`` when the move is applied.
"""

import random

import pytest

from repro.solver.goals import (
    AffinityGoal,
    BalanceGoal,
    CapacityGoal,
    DrainGoal,
    SpreadGoal,
    UtilizationGoal,
)
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


def build_problem(num_servers=6, num_shards=4, replicas_per_shard=2,
                  load=30.0, seed=1, draining=()):
    rng = random.Random(seed)
    servers = [
        ServerInfo(name=f"s{i}", region=["A", "B", "C"][i % 3],
                   datacenter=f"dc{i % 2}", rack=f"rack{i}",
                   capacity=(100.0,),
                   draining=(i in draining))
        for i in range(num_servers)
    ]
    replicas = []
    for shard in range(num_shards):
        for copy in range(replicas_per_shard):
            replicas.append(ReplicaInfo(
                name=f"sh{shard}#{copy}", shard=f"sh{shard}", load=(load,),
                preferred_region="A" if shard == 0 else None))
    problem = PlacementProblem(["cpu"], servers, replicas)
    problem.random_assignment(rng)
    return problem


def delta_matches_applied_cost(problem, goal, trials=100, seed=3):
    """Property: delta prediction == actual cost change, for random moves."""
    rng = random.Random(seed)
    for _ in range(trials):
        replica = rng.randrange(len(problem.replicas))
        src = problem.assignment[replica]
        dst = rng.randrange(len(problem.servers))
        if src == dst:
            continue
        goal.refresh()
        predicted = goal.move_delta(replica, src, dst)
        before = goal.total_cost()
        problem.move(replica, dst)
        goal.on_move(replica, src, dst)
        after = goal.total_cost()
        assert after - before == pytest.approx(predicted, abs=1e-6), (
            f"{goal.name}: predicted {predicted}, actual {after - before}")


class TestCapacityGoal:
    def test_no_violation_when_under_capacity(self):
        problem = build_problem(num_servers=8, num_shards=4, load=10.0)
        goal = CapacityGoal(problem, CapacitySpec(metric="cpu"))
        # 8 replicas x 10 load over 8 servers of 100 capacity: no overflow
        # possible even fully stacked?  Stack them to check the math.
        for r in range(len(problem.replicas)):
            problem.move(r, 0)
        assert goal.violations() == 0 or problem.usage[0][0] <= 100.0 + 1e-9

    def test_overflow_counted(self):
        problem = build_problem(num_servers=2, num_shards=3, load=50.0)
        goal = CapacityGoal(problem, CapacitySpec(metric="cpu"))
        for r in range(6):
            problem.move(r, 0)
        assert goal.violations() == 1
        assert goal.total_cost() == pytest.approx(200.0)
        assert goal.violating_servers() == [0]

    def test_fits(self):
        problem = build_problem(num_servers=2, num_shards=1, load=60.0,
                                replicas_per_shard=1)
        goal = CapacityGoal(problem, CapacitySpec(metric="cpu"))
        problem.move(0, 0)
        # Its own server already carries its 60 (120 > 100); the empty
        # server fits it.
        assert goal.fitting(0, (0, 1)) == [1]

    def test_delta_consistency(self):
        problem = build_problem(num_servers=3, num_shards=5, load=40.0)
        goal = CapacityGoal(problem, CapacitySpec(metric="cpu"))
        delta_matches_applied_cost(problem, goal)


class TestUtilizationGoal:
    def test_threshold_violations(self):
        problem = build_problem(num_servers=2, num_shards=1,
                                replicas_per_shard=2, load=50.0)
        goal = UtilizationGoal(problem,
                               UtilizationSpec(metric="cpu", threshold=0.9))
        problem.move(0, 0)
        problem.move(1, 0)
        assert goal.violations() == 1  # 100 > 90
        problem.move(1, 1)
        assert goal.violations() == 0

    def test_delta_consistency(self):
        problem = build_problem(num_servers=3, num_shards=6, load=25.0)
        goal = UtilizationGoal(problem,
                               UtilizationSpec(metric="cpu", threshold=0.6))
        delta_matches_applied_cost(problem, goal)


class TestBalanceGoal:
    def test_global_mean_limit(self):
        problem = build_problem(num_servers=4, num_shards=4,
                                replicas_per_shard=1, load=20.0)
        goal = BalanceGoal(problem, BalanceSpec(metric="cpu", band=0.1))
        # All on one server: mean util = 80/400 = 0.2; limit = 0.3.
        for r in range(4):
            problem.move(r, 0)
        goal.refresh()
        assert goal.violations() == 1
        # Spread evenly: each at 0.2 <= 0.3.
        for r in range(4):
            problem.move(r, r)
        goal.refresh()
        assert goal.violations() == 0

    def test_regional_scope(self):
        problem = build_problem(num_servers=6, num_shards=6,
                                replicas_per_shard=1, load=20.0)
        goal = BalanceGoal(problem,
                           BalanceSpec(metric="cpu", scope=Scope.REGION,
                                       band=0.05))
        for r in range(6):
            problem.move(r, 0)  # server 0 is in region A
        goal.refresh()
        assert goal.violations() >= 1
        assert 0 in goal.violating_servers()

    def test_delta_consistency_global(self):
        problem = build_problem(num_servers=4, num_shards=8, load=15.0)
        goal = BalanceGoal(problem, BalanceSpec(metric="cpu", band=0.1))
        delta_matches_applied_cost(problem, goal)


class TestAffinityGoal:
    def test_satisfied_by_one_replica(self):
        problem = build_problem(num_servers=6, num_shards=2)
        goal = AffinityGoal(problem, AffinitySpec())
        # shard 0 prefers region A; servers 0 and 3 are region A.
        problem.move(0, 0)  # sh0#0 -> region A
        problem.move(1, 1)  # sh0#1 -> region B
        goal.refresh()
        assert goal.violations() == 0

    def test_unsatisfied_when_no_replica_in_region(self):
        problem = build_problem(num_servers=6, num_shards=2)
        goal = AffinityGoal(problem, AffinitySpec())
        problem.move(0, 1)  # B
        problem.move(1, 2)  # C
        goal.refresh()
        assert goal.violations() == 1
        assert goal.contributes(0)
        assert not goal.contributes(2)  # shard 1 has no preference

    def test_delta_consistency(self):
        problem = build_problem(num_servers=6, num_shards=4)
        goal = AffinityGoal(problem, AffinitySpec())
        delta_matches_applied_cost(problem, goal)


class TestSpreadGoal:
    def test_colocated_replicas_counted(self):
        problem = build_problem(num_servers=6, num_shards=1,
                                replicas_per_shard=3)
        goal = SpreadGoal(problem, ExclusionSpec(scope=Scope.REGION))
        for r in range(3):
            problem.move(r, 0)  # all in region A
        goal.refresh()
        assert goal.violations() == 2  # two excess replicas
        problem.move(1, 1)  # region B
        goal.refresh()
        assert goal.violations() == 1
        problem.move(2, 2)  # region C
        goal.refresh()
        assert goal.violations() == 0

    def test_crowded_and_contributes(self):
        problem = build_problem(num_servers=6, num_shards=1,
                                replicas_per_shard=2)
        goal = SpreadGoal(problem, ExclusionSpec(scope=Scope.REGION))
        problem.move(0, 0)
        problem.move(1, 3)  # same region A (servers 0 and 3)
        goal.refresh()
        assert goal.crowded(0)
        assert goal.contributes(1)

    def test_rack_scope(self):
        problem = build_problem(num_servers=4, num_shards=1,
                                replicas_per_shard=2)
        goal = SpreadGoal(problem, ExclusionSpec(scope=Scope.RACK))
        problem.move(0, 0)
        problem.move(1, 0)
        goal.refresh()
        assert goal.violations() == 1

    def test_delta_consistency(self):
        problem = build_problem(num_servers=6, num_shards=3,
                                replicas_per_shard=3)
        goal = SpreadGoal(problem, ExclusionSpec(scope=Scope.REGION))
        delta_matches_applied_cost(problem, goal)


class TestDrainGoal:
    def test_replicas_on_draining_servers(self):
        problem = build_problem(num_servers=4, num_shards=2,
                                replicas_per_shard=1, draining=(0,))
        goal = DrainGoal(problem, DrainSpec())
        problem.move(0, 0)
        problem.move(1, 1)
        assert goal.violations() == 1
        assert goal.violating_servers() == [0]
        problem.move(0, 2)
        assert goal.violations() == 0

    def test_delta_consistency(self):
        problem = build_problem(num_servers=4, num_shards=4, draining=(0, 1))
        goal = DrainGoal(problem, DrainSpec())
        delta_matches_applied_cost(problem, goal)
