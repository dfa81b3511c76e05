"""The solver's tie-breaking does not depend on the process hash seed.

The local search breaks ties by iteration order.  If any of that order
came from a ``set`` of strings, two processes with the same seed but
different ``PYTHONHASHSEED`` would make different moves.  A subprocess
per hash seed runs the benchmark's quick ``solver_place`` instances
(Fig 21's three scale points at ``factor=50``, snapshot seed 3000,
search seed 3) and the periodic solves of a small Fig 23 run inside the
simulation, and prints every ``PlacementProblem.move`` call in order and
every plan's moves; the three outputs must be identical.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("0", "1", "7")

PROBE = r"""
import json

from repro.core.allocator import Allocator
from repro.experiments import fig23_continuous_lb
from repro.solver.local_search import SearchConfig
from repro.solver.problem import PlacementProblem
from repro.workloads import PAPER_SCALES
from repro.workloads.snapshots import (attach_zippydb_goals, scaled,
                                       zippydb_snapshot)

moves = []
move = PlacementProblem.move


def logged_move(self, replica, server):
    moves.append((replica, server))
    return move(self, replica, server)


PlacementProblem.move = logged_move
out = {"solver_place": [], "in_simulation": []}
for scale in scaled(PAPER_SCALES, factor=50):
    moves.clear()
    rebalancer = attach_zippydb_goals(zippydb_snapshot(scale, seed=3000))
    result = rebalancer.solve(SearchConfig(time_budget=600.0, rng_seed=3))
    out["solver_place"].append({
        "moves": list(moves), "counts": [result.moves, result.swaps,
                                         result.evaluations,
                                         result.final_violations]})

periodic_plan = Allocator.periodic_plan


def logged_plan(self, *args, **kwargs):
    moves.clear()
    plan = periodic_plan(self, *args, **kwargs)
    out["in_simulation"].append({
        "moves": list(moves),
        "plan": [[m.replica_id, m.from_address, m.to_address]
                 for m in plan.moves]})
    return plan


Allocator.periodic_plan = logged_plan
fig23_continuous_lb.run(servers=10, shards=40, days=0.1)
print(json.dumps(out))
"""


def _probe(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, text=True,
                          capture_output=True, check=True)
    return json.loads(done.stdout)


def test_moves_agree_across_hash_seeds():
    first, *others = [_probe(seed) for seed in HASH_SEEDS]
    # Not vacuous: every instance moves something, and so does the
    # simulation's first rebalance.
    assert all(solve["moves"] for solve in first["solver_place"])
    assert first["in_simulation"] and first["in_simulation"][0]["plan"]
    for other in others:
        assert other == first
