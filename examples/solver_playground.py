"""Direct use of the constraint solver (the paper's Figure 13 API).

Builds a placement problem by hand, declares hard constraints and
prioritized soft goals exactly like the paper's ReBalancer snippet, and
solves it — useful when adopting only SM's placement component, as the
composable-ecosystem applications do (§7, "Data Placer").

Run:  python examples/solver_playground.py
"""

import random

from repro.sim.rng import skewed_loads
from repro.solver import (
    AffinitySpec,
    BalanceSpec,
    CapacitySpec,
    ExclusionSpec,
    PlacementProblem,
    Rebalancer,
    ReplicaInfo,
    Scope,
    SearchConfig,
    ServerInfo,
    UtilizationSpec,
)


def main() -> None:
    rng = random.Random(0)
    regions = ("regionA", "regionB", "regionC")
    servers = [
        ServerInfo(name=f"server{i:02d}", region=regions[i % 3],
                   datacenter=f"dc{i % 6}", rack=f"rack{i % 12}",
                   capacity=(100.0, 64.0))  # cpu, network
        for i in range(30)
    ]
    # 120 shards x 2 replicas, 20x load skew, some with region preferences
    # — "shard1 in regionA and a stronger goal of shard2 in regionB".
    cpu = skewed_loads(rng, 240, mean=55.0 * 30 / 240)
    replicas = []
    for shard in range(120):
        preferred = {0: "regionA", 1: "regionB"}.get(shard)
        weight = 2.0 if shard == 1 else 1.0
        for copy in range(2):
            index = shard * 2 + copy
            replicas.append(ReplicaInfo(
                name=f"shard{shard}_replica{copy + 1}",
                shard=f"shard{shard}",
                load=(cpu[index], cpu[index] * 0.4),
                preferred_region=preferred,
                preference_weight=weight,
            ))
    problem = PlacementProblem(["cpu", "network"], servers, replicas)
    problem.random_assignment(rng)

    # The Figure 13 statements, one for one:
    rebalancer = Rebalancer(problem)
    rebalancer.add_constraint(CapacitySpec(metric="cpu"))        # stmt 1
    rebalancer.add_constraint(CapacitySpec(metric="network"))    # stmt 2
    rebalancer.add_goal(BalanceSpec(metric="cpu"), weight=1.0)   # stmt 3
    rebalancer.add_goal(BalanceSpec(metric="network"), weight=0.5)  # stmt 4
    rebalancer.add_goal(AffinitySpec())                          # stmts 5-6
    rebalancer.add_goal(ExclusionSpec(scope=Scope.REGION))       # stmts 7-8
    rebalancer.add_goal(UtilizationSpec(metric="cpu", threshold=0.9))

    print("violations before:", rebalancer.violations_by_goal())
    result = rebalancer.solve(SearchConfig(time_budget=30.0))
    print("violations after :", rebalancer.violations_by_goal())
    print(f"{result.moves} moves in {result.solve_time:.2f}s "
          f"({result.evaluations} move evaluations)")

    # Where did the preferred shards land?  The preference is satisfied
    # when *one* replica sits in the preferred region; the spread goal
    # pushes the other replica to a different region.
    for shard, preferred in (("shard0", "regionA"), ("shard1", "regionB")):
        placements = []
        for index, replica in enumerate(replicas):
            if replica.shard == shard:
                server = problem.servers[problem.assignment[index]]
                placements.append(server.region)
        print(f"{shard} (prefers {preferred}): replicas in {placements}")


if __name__ == "__main__":
    main()
