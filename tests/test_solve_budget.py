"""Python calls per periodic solve's set-up, pinned exactly.

Every rebalance tick snapshots the assignment table into a
``PlacementProblem`` (§5.1's periodic mode), so that set-up is paid per
tick in proportion to the replicas, before the search starts.  Like
``tests/test_event_budget.py`` this file pins what that cost is made of
rather than timing it: on a library timeline, every function under
``src/repro`` that ``Allocator.build_problem`` enters, by ``co_name``,
and every ``ReplicaInfo`` row it constructs.

The one call allowed per kept replica is the app's ``load_of``; the
rest is per shard (``replicas_view``) or per solve.  A row object per
replica, a drain-policy test per replica, or a second way into the
problem's core fails a count here.  The counting rule is
``tests/ledger.py``'s: comprehensions, generator expressions and
lambdas are not counted.
"""

from collections import Counter

import pytest

from repro.chaos import get, run_scenario
from repro.core.allocator import Allocator
from repro.solver.problem import ReplicaInfo

from tests.ledger import count_calls

ROW = ReplicaInfo.__new__.__code__


def traced_builds(monkeypatch, scenario: str) -> list:
    """``(calls, rows, shards, kept)`` for every periodic build of one
    library run (``sm`` arm, seed 0): the co_name Counter, the
    ``ReplicaInfo`` rows constructed, the spec's shards and the replicas
    the problem kept."""
    builds = []
    original = Allocator.build_problem

    def counted(allocator, *args):
        calls, (problem, index_to_replica) = count_calls(
            lambda: original(allocator, *args), extra=(ROW, "ReplicaInfo"))
        rows = calls.pop("ReplicaInfo", 0)
        builds.append((calls, rows, len(allocator.spec.shards),
                       len(index_to_replica)))
        return problem, index_to_replica

    monkeypatch.setattr(Allocator, "build_problem", counted)
    run_scenario(get(scenario), arm="sm", seed=0)
    return builds


def per_solve(shards: int, kept: int) -> Counter:
    """One build: a table read per shard, one load per kept replica, the
    two roles' drain tests, and the problem's one columnar core."""
    return Counter({"build_problem": 1, "replicas_view": shards,
                    "load_of": kept, "drains": 2, "from_columns": 1,
                    "_build": 1, "_move_all": 1})


@pytest.mark.parametrize("scenario", [
    # maintenance drains servers while a crash takes one down;
    "crash_overlaps_maintenance",
    # two secondaries a shard with region preferences, one region lost.
    "fig19",
])
def test_periodic_build_call_budget(monkeypatch, scenario):
    builds = traced_builds(monkeypatch, scenario)
    assert len(builds) >= 10
    for calls, rows, shards, kept in builds:
        assert calls == per_solve(shards, kept)
        assert rows == 0
