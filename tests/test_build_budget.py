"""Python calls of building an N-shard app, pinned exactly.

§6 runs apps with 10^5-10^6 shards, so the build path (``uniform_shards``
-> ``AppSpec`` -> ``AssignmentTable`` -> one ``add`` per shard -> the
first full ``snapshot_delta``) is paid per shard before anything is
published.  Like ``tests/test_solve_budget.py`` this file pins what that
cost is made of rather than timing it: every function under
``src/repro`` the build enters, by ``co_name`` (``tests/ledger.py``).

Per shard the build may enter the two ``__post_init__`` checks (the key
range's and the shard's), one ``add`` and the one ``_restaff`` it runs;
an ``add`` onto a shard with no replica yet has no primary to look for,
so ``primary_of`` is never entered.  Validating the spec and filling the
key index are bulk passes: the frames they enter, comprehensions and
generator expressions included, do not grow with the shard count.
Elsewhere comprehensions are not counted: whether they get a frame of
their own depends on the interpreter (3.12 inlines them).
"""

from collections import Counter

import pytest

from repro.core.shard_map import AssignmentTable, ReplicaState
from repro.core.spec import AppSpec, ReplicationStrategy, Role, uniform_shards

from tests.ledger import count_calls

SHARDS = 10_000
SERVERS = 100


def uniform_app(shards: int) -> AppSpec:
    return AppSpec(name="scale",
                   shards=uniform_shards(shards, key_space=shards * 16),
                   replication=ReplicationStrategy.PRIMARY_ONLY)


def add_primaries(table: AssignmentTable) -> list:
    return [table.add(shard.shard_id, f"srv/{index % SERVERS}", Role.PRIMARY,
                      state=ReplicaState.READY)
            for index, shard in enumerate(table.spec.shards)]


def test_uniform_app_build_call_budget():
    calls, shards = count_calls(
        lambda: uniform_shards(SHARDS, key_space=SHARDS * 16))
    # KeyRange's and ShardSpec's checks, once each per shard.
    assert calls == Counter({"uniform_shards": 1,
                             "__post_init__": 2 * SHARDS})

    calls, spec = count_calls(lambda: AppSpec(name="scale", shards=shards))
    assert calls == Counter({"__post_init__": 1})

    calls, table = count_calls(lambda: AssignmentTable(spec))
    assert calls == Counter({"__init__": 2, "from_spec": 1, "_chunked": 2,
                             "__len__": 1, "has_primaries": 1})

    calls, replicas = count_calls(lambda: add_primaries(table))
    assert len(replicas) == SHARDS
    assert calls == Counter({"add": SHARDS, "_restaff": SHARDS})
    assert calls["primary_of"] == 0

    calls, (shard_map, delta) = count_calls(table.snapshot_delta)
    assert calls == Counter({"snapshot_delta": 1, "_rebuild_dirty": 1,
                             "_make_map": 1, "__init__": 1})
    assert len(delta.indices) == SHARDS
    last = SHARDS - 1
    assert shard_map.primary_at(last) == f"srv/{last % SERVERS}"


def test_bulk_passes_enter_no_frame_per_shard():
    """Every frame validation and the key index enter, comprehensions
    included, at two sizes: the counts must not move with the size."""
    frames = []
    for shards in (SHARDS // 10, SHARDS):
        specs = uniform_shards(shards, key_space=shards * 16)
        spec_calls, spec = count_calls(
            lambda: AppSpec(name="scale", shards=specs), every_frame=True)
        table_calls, _table = count_calls(lambda: AssignmentTable(spec),
                                     every_frame=True)
        frames.append((spec_calls, table_calls))
    assert frames[0] == frames[1]
    spec_calls, table_calls = frames[1]
    assert sum(spec_calls.values()) <= 8
    assert sum(table_calls.values()) <= 16


def test_add_onto_a_staffed_shard_still_refuses_a_second_primary():
    """Skipping ``primary_of`` on an empty shard keeps the check where it
    can fire: a second primary onto a shard is refused, a secondary
    beside it is not."""
    table = AssignmentTable(uniform_app(4))
    table.add("shard0", "srv/0", Role.PRIMARY)
    with pytest.raises(ValueError,
                       match="^shard shard0 already has a primary$"):
        table.add("shard0", "srv/1", Role.PRIMARY)
    with pytest.raises(KeyError, match="unknown shard 'shard9'"):
        table.add("shard9", "srv/1", Role.PRIMARY)
    table.add("shard0", "srv/1", Role.SECONDARY)
    assert [r.replica_id for r in table.replicas_of("shard0")] == [
        "shard0#0", "shard0#1"]
